// Design audit: make an 881-router "hairball" intelligible.
//
// This example replays the paper's Section 5.1 workflow on the synthetic
// net5 — a network whose physical topology is a dense, unreadable mess,
// but whose routing design resolves into three EIGRP compartments bridged
// by a handful of BGP ASes once the routing instance model is applied.
//
// Run with: go run ./examples/design-audit
package main

import (
	"context"
	"fmt"
	"log"

	"routinglens"
)

func main() {
	ctx := context.Background()
	an := routinglens.NewAnalyzer()
	// Generate the corpus deterministically and pick the 881-router
	// case-study network. In real use this would be AnalyzeDir on a
	// directory of production configurations.
	corpus := routinglens.GenerateCorpus(2004)
	g := corpus.ByName("net5")
	fmt.Printf("analyzing %s: %d routers...\n\n", g.Name, g.Routers)

	design, _, err := an.AnalyzeConfigs(ctx, g.Name, g.Configs)
	if err != nil {
		log.Fatal(err)
	}

	// 1. The instance model reduces 881 routers to a handful of instances.
	fmt.Printf("routing instances: %d (vs %d routers)\n", len(design.Instances.Instances), g.Routers)
	fmt.Println("\nthe compartments and bridging ASes:")
	for _, in := range design.Instances.Instances {
		if in.Size() >= 3 {
			fmt.Printf("  instance %-3d %-14s %4d routers, %d external peers\n",
				in.ID, in.Label(), in.Size(), in.ExternalPeers)
		}
	}

	// 2. Redundancy question from the paper: how many routers must fail to
	// partition the big compartment from its bridging AS?
	var big, bridge *routinglens.Instance
	for _, in := range design.Instances.Instances {
		if in.Size() == 445 {
			big = in
		}
		if in.ASN == 65001 {
			bridge = in
		}
	}
	if big != nil && bridge != nil {
		cut := design.Instances.CutRouters(big, bridge)
		fmt.Printf("\nrouters bridging instance %d and instance %d (redundant backups): %d\n",
			big.ID, bridge.ID, len(cut))
		for _, d := range cut {
			fmt.Printf("  %s\n", d.Hostname)
		}
	}

	// 3. A route pathway for a router deep inside compartment A: external
	// routes pass through at least three protocol layers to reach it.
	pw, err := design.Pathway("r50")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(pw)
	fmt.Printf("pathway depth: %d protocol layers\n", pw.MaxDepth())

	// 4. Where is internal packet filtering applied?
	fmt.Printf("\npacket filters: %d applied rules, %.0f%% on internal links; largest single filter: %d clauses\n",
		design.Filters.TotalRules, design.Filters.PercentInternal(), design.Filters.MaxClausesPerFilter)
}
