// Reachability audit: verify that routing policy restricts who can talk to
// whom — the paper's Section 6.2 case study.
//
// The synthetic net15 is an enterprise of two sites, each peering with a
// different provider AS under tight ingress/egress route filters. The
// audit answers three security questions without touching a live router:
//
//  1. Can hosts reach the Internet at large? (They must not.)
//  2. Which external routes do the filters admit?
//  3. Can the two sites reach each other through the providers? (No.)
//
// Run with: go run ./examples/reachability
package main

import (
	"context"
	"fmt"
	"log"

	"routinglens"
)

func mustPrefix(s string) routinglens.Prefix {
	p, err := routinglens.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func main() {
	ctx := context.Background()
	an := routinglens.NewAnalyzer()
	corpus := routinglens.GenerateCorpus(2004)
	g := corpus.ByName("net15")
	design, _, err := an.AnalyzeConfigs(ctx, g.Name, g.Configs)
	if err != nil {
		log.Fatal(err)
	}

	// The network's address plan (the blocks of the paper's Table 2).
	var (
		remoteCorp  = mustPrefix("10.128.0.0/16") // AB0: remote corporate space
		leftOnly    = mustPrefix("10.160.0.0/16") // AB1: admitted at the left site
		leftHosts   = mustPrefix("10.40.0.0/16")  // AB2: left site's hosts
		rightOnly   = mustPrefix("10.192.0.0/16") // AB3: admitted at the right site
		rightHosts  = mustPrefix("10.80.0.0/16")  // AB4: right site's hosts
		internetDef = mustPrefix("0.0.0.0/0")
	)

	// What the providers would announce: a default route, the corporate
	// blocks, and miscellaneous Internet space.
	injections := []routinglens.ExternalRoute{
		{Prefix: internetDef, AS: 25286},
		{Prefix: internetDef, AS: 12762},
		{Prefix: remoteCorp, AS: 25286},
		{Prefix: leftOnly, AS: 25286},
		{Prefix: remoteCorp, AS: 12762},
		{Prefix: rightOnly, AS: 12762},
		{Prefix: mustPrefix("198.51.100.0/24"), AS: 25286},
	}

	audit := design.Reachability(injections)

	fmt.Printf("network: %s (%d routers, %d routing instances)\n\n",
		g.Name, g.Routers, len(design.Instances.Instances))

	fmt.Printf("1. Internet at large reachable: %v (must be false)\n", audit.HasDefaultRoute())

	fmt.Println("\n2. external routes admitted by the ingress policies:")
	for _, p := range audit.AdmittedExternalRoutes() {
		fmt.Printf("   %s\n", p)
	}

	fmt.Println("\n3. block-to-block reachability:")
	check := func(name string, src, dst routinglens.Prefix, want bool) {
		got := audit.BlockReachesBlock(src, dst)
		verdict := "OK"
		if got != want {
			verdict = "VIOLATION"
		}
		fmt.Printf("   %-28s %-6v (expected %-5v) %s\n", name, got, want, verdict)
	}
	check("left hosts -> remote corp", leftHosts, remoteCorp, true)
	check("right hosts -> remote corp", rightHosts, remoteCorp, true)
	check("left hosts -> right hosts", leftHosts, rightHosts, false)
	check("right hosts -> left hosts", rightHosts, leftHosts, false)
	check("left hosts -> right-only", leftHosts, rightOnly, false)

	fmt.Println("\n4. what each provider hears from us:")
	for as, prefixes := range audit.AnnouncedRoutes() {
		fmt.Printf("   AS%d: %d prefixes (first: %v)\n", as, len(prefixes), first(prefixes))
	}
}

func first(ps []routinglens.Prefix) any {
	if len(ps) == 0 {
		return "none"
	}
	return ps[0]
}
