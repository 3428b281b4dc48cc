// Anonymize and share: prepare router configurations for release to
// researchers without leaking identity — the paper's Section 4 methodology
// — and verify that the routing design survives the transformation.
//
// Run with: go run ./examples/anonymize-and-share
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
	g := corpus.ByName("net8") // a mid-size enterprise

	// Analyze the original.
	before, _, err := an.AnalyzeConfigs(ctx, g.Name, g.Configs)
	if err != nil {
		log.Fatal(err)
	}

	// Anonymize: comments stripped, names hashed, addresses remapped
	// prefix-preservingly, public AS numbers remapped, files renamed to
	// config1..configN.
	anon := routinglens.NewAnonymizer("do-not-commit-this-key")
	anonConfigs, err := anon.MapNetwork(g.Configs)
	if err != nil {
		log.Fatal(err)
	}

	// Show the transformation on a sample.
	fmt.Println("original r1 (first lines):")
	fmt.Println(head(g.Configs["r1"], 6))
	fmt.Println("an anonymized config (first lines):")
	for name, cfg := range anonConfigs {
		fmt.Printf("%s:\n%s\n", name, head(cfg, 6))
		break
	}

	// Re-analyze the anonymized corpus: the routing design is isomorphic.
	after, _, err := an.AnalyzeConfigs(ctx, g.Name+"-anon", anonConfigs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("design invariance check:")
	fmt.Printf("  instances:        %3d -> %3d\n", len(before.Instances.Instances), len(after.Instances.Instances))
	fmt.Printf("  instance edges:   %3d -> %3d\n", len(before.Instances.Edges), len(after.Instances.Edges))
	fmt.Printf("  external peers:   %3d -> %3d\n", len(before.ProcessGraph.ExternalNodes()), len(after.ProcessGraph.ExternalNodes()))
	fmt.Printf("  classification:   %s -> %s\n", before.Classification.Design, after.Classification.Design)
	if len(before.Instances.Instances) == len(after.Instances.Instances) &&
		before.Classification.Design == after.Classification.Design {
		fmt.Println("  => the anonymized corpus supports the same analysis as the original")
	} else {
		fmt.Println("  => MISMATCH (this would be a bug)")
	}
}

func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n") + "\n  ..."
}
