// Operations toolkit: the paper's Section 8 use cases — vulnerability
// assessment, survivability ("what if") analysis, and longitudinal design
// diffing — driven from the extracted routing design.
//
// Run with: go run ./examples/ops-toolkit
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"routinglens"
)

func main() {
	ctx := context.Background()
	an := routinglens.NewAnalyzer()
	corpus := routinglens.GenerateCorpus(2004)
	g := corpus.ByName("net12") // the 101-router enterprise

	design, _, err := an.AnalyzeConfigs(ctx, g.Name, g.Configs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network %s: %d routers, classified %s\n\n",
		g.Name, g.Routers, design.Classification.Design)

	// --- 1. Vulnerability assessment (Section 8.1) ---
	fmt.Println("## best-common-practice audit")
	report := design.Audit()
	fmt.Print(report.Summary())
	for i, f := range report.Findings {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(report.Findings)-i)
			break
		}
		fmt.Printf("  %s\n", f)
	}

	// --- 2. Survivability analysis (Section 8.1) ---
	fmt.Println("\n## what-if failure analysis")
	surv := design.Survivability()
	fmt.Print(surv.Summary())

	// --- 3. Longitudinal diff (Section 8.2) ---
	// Simulate an operational change: decommission a leaf router and stop
	// a redistribution.
	fmt.Println("\n## design diff after a maintenance window")
	changed := make(map[string]string, len(g.Configs))
	for k, v := range g.Configs {
		changed[k] = v
	}
	delete(changed, "r101")
	changed["r1"] = strings.Replace(changed["r1"], " redistribute ospf 2 subnets\n", "", 1)

	after, _, err := an.AnalyzeConfigs(ctx, g.Name, changed)
	if err != nil {
		log.Fatal(err)
	}
	diff := after.DiffFrom(design)
	fmt.Print(diff.String())
}
