// Command netgen writes the synthetic 31-network configuration corpus to
// disk: one directory per network, one file per router. The corpus is the
// substitute for the paper's 8,035 proprietary configurations (see
// DESIGN.md) and is deterministic for a given seed.
//
// Usage:
//
//	netgen -out corpus/ [-seed 2004] [-net net5] [-anon] [-j N]
//	netgen -out dir/ -provider 10000   # one provider-scale pod fabric
//
// -net restricts output to one network; -provider N replaces the corpus
// with a single provider-scale network of ~N routers (the subject of the
// 10k-router scale benchmarks); -anon additionally anonymizes
// every file (comments stripped, names hashed, addresses remapped
// prefix-preservingly) and names files config1, config2, ... as in the
// paper's methodology. -j bounds the worker pool writing the networks
// (0, the default, uses GOMAXPROCS); the files and the printed summary
// are identical whatever N. A network that -dialect junos cannot
// translate without losing routes (EIGRP, a router with more than one
// OSPF process, or BGP network statements; see internal/junosemit) is
// skipped with a notice; -fail-fast aborts instead.
//
// Observability: -v/-vv, -log-format, -metrics, -pprof, and -timeout
// behave as in cmd/rdesign; a timed-out or interrupted run stops at the
// next network boundary, leaving already-written networks intact.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"routinglens/internal/anonymize"
	"routinglens/internal/ciscoparse"
	"routinglens/internal/fanout"
	"routinglens/internal/junosemit"
	"routinglens/internal/netgen"
	"routinglens/internal/telemetry"
)

var tele = telemetry.NewCLI("netgen")

func main() {
	out := flag.String("out", "", "output directory (required)")
	seed := flag.Int64("seed", 2004, "corpus generation seed")
	only := flag.String("net", "", "write only this network (e.g. net5)")
	provider := flag.Int("provider", 0, "instead of the corpus, write one provider-scale pod fabric with this many routers (rounded to whole pods)")
	anon := flag.Bool("anon", false, "anonymize the emitted configurations")
	key := flag.String("key", "netgen-default-key", "anonymization secret (with -anon)")
	dialect := flag.String("dialect", "ios", "emit configurations as 'ios' or 'junos' (junos skips networks running EIGRP, several OSPF processes on one router, or BGP network statements)")
	tele.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := tele.Activate(); err != nil {
		fatal(err)
	}
	log := telemetry.Logger()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "netgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	if *anon && *dialect == "junos" {
		fatal(fmt.Errorf("the anonymizer is IOS-specific (as in the paper); use -dialect ios"))
	}

	ctx, stop := tele.Context()
	defer stop()

	var selected []*netgen.Generated
	if *provider > 0 {
		// The provider fabric is deliberately not part of the corpus (it
		// would distort the paper-calibrated statistics); -provider emits
		// it standalone for compression walkthroughs and benchmarks.
		selected = []*netgen.Generated{netgen.GenerateProvider(*seed, *provider)}
	} else {
		corpus := netgen.GenerateCorpus(*seed)
		for _, g := range corpus.Networks {
			if *only == "" || g.Name == *only {
				selected = append(selected, g)
			}
		}
	}

	// Networks are written concurrently (-j workers); results are
	// collected per network and reported in corpus order so the summary
	// never depends on scheduling.
	type netResult struct {
		wrote   int
		skipped string // stderr notice for a skipped network
		err     error
	}
	results := make([]netResult, len(selected))
	writeOne := func(g *netgen.Generated) netResult {
		dir := filepath.Join(*out, g.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return netResult{err: err}
		}
		configs := g.Configs
		if *dialect == "junos" {
			translated := make(map[string]string, len(configs))
			for host, cfg := range configs {
				res, err := ciscoparse.Parse(host, strings.NewReader(cfg))
				if err == nil {
					var out string
					out, err = junosemit.Emit(res.Device)
					translated[host] = out
				}
				if err != nil {
					// A network that cannot be translated is skipped with a
					// notice (lenient default); -fail-fast aborts instead.
					if tele.FailFast {
						return netResult{err: fmt.Errorf("%s/%s: %w", g.Name, host, err)}
					}
					return netResult{skipped: fmt.Sprintf("netgen: skipping %s: %s: %v", g.Name, host, err)}
				}
			}
			configs = translated
		}
		if *anon {
			var err error
			configs, err = anonymize.New(*key).MapNetwork(configs)
			if err != nil {
				return netResult{err: err}
			}
		}
		names := make([]string, 0, len(configs))
		for n := range configs {
			names = append(names, n)
		}
		sort.Strings(names)
		wrote := 0
		for _, n := range names {
			fn := n
			if !*anon {
				fn += ".cfg"
			}
			if err := os.WriteFile(filepath.Join(dir, fn), []byte(configs[n]), 0o644); err != nil {
				return netResult{err: err}
			}
			wrote++
		}
		log.Debug("network written", "network", g.Name, "routers", g.Routers, "dir", dir)
		return netResult{wrote: wrote}
	}

	fanout.Each(len(selected), tele.Parallelism(), func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			// Cancellation (Ctrl-C, -timeout) stops at the next
			// network boundary; finished networks stay on disk.
			if err := ctx.Err(); err != nil {
				results[i] = netResult{err: err}
				return
			}
			results[i] = writeOne(selected[i])
		}
	})

	wrote, skippedNets := 0, 0
	for i, r := range results {
		if r.err != nil {
			fatal(r.err)
		}
		if r.skipped != "" {
			fmt.Fprintln(os.Stderr, r.skipped)
			skippedNets++
			continue
		}
		g := selected[i]
		fmt.Printf("%s: %d routers (%s)\n", g.Name, g.Routers, g.Kind)
		wrote += r.wrote
	}
	if skippedNets > 0 {
		fmt.Fprintf(os.Stderr, "netgen: skipped %d network(s)\n", skippedNets)
	}
	if wrote == 0 {
		if *only != "" && len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "netgen: no network named %q\n", *only)
		} else {
			fmt.Fprintln(os.Stderr, "netgen: no configuration files written")
		}
		tele.Finish()
		os.Exit(1)
	}
	fmt.Printf("wrote %d configuration files under %s\n", wrote, *out)
	if tele.Finish() != nil {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "netgen: %v\n", err)
	tele.Finish()
	os.Exit(1)
}
