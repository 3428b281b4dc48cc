// Command rdesign reverse engineers the routing design of a network from a
// directory of router configuration files.
//
// Usage:
//
//	rdesign -dir path/to/configs [flag]
//
// With only -dir it prints the design summary: routing instances, the
// instance graph with policies, classification evidence, and filter
// statistics. One additional mode flag selects a deeper analysis:
//
//	-pathway R          route pathway graph of router R (Section 3.3)
//	-influence R        forward blast radius of router R
//	-trace SRC,DEST     static traceroute from SRC toward address DEST
//	-blocks             recovered address-space tree (Section 3.4)
//	-suspects           probable missing routers
//	-audit              best-common-practice findings (Section 8.1)
//	-whatif             survivability / failure analysis (Section 8.1)
//	-monitors           route-monitor placement suggestion
//	-diff OLDDIR        longitudinal diff against an older snapshot
//	-dot KIND           Graphviz DOT (instances | processes | a router name)
//
// Observability flags (shared by every binary in cmd/): -v and -vv raise
// the structured-log level (info, debug) and print an end-of-run
// stage-timing summary; -log-format json switches logs to JSON;
// -metrics FILE exports run metrics (-metrics-format prom|json); and
// -pprof ADDR serves net/http/pprof for the duration of the run.
// -j N bounds the parse and analysis-stage worker pools (0, the default,
// uses GOMAXPROCS). The route simulator behind -trace shards by
// GOMAXPROCS instead, so GOMAXPROCS=1 runs everything on one core; the
// output is byte-identical either way.
// -timeout D puts a deadline on the whole run; on expiry — or on Ctrl-C —
// the analysis cancels cleanly and reports the diagnostics gathered so
// far.
//
// A file that fails to parse entirely is skipped by default: it surfaces
// as a severity-error diagnostic, a "skipped N unparseable file(s)" line
// on stderr, and the routinglens_files_skipped_total metric, while the
// analysis continues with the remaining routers. -fail-fast restores
// abort-on-first-error.
//
// Both Cisco IOS and JunOS configuration files are accepted; the dialect
// is detected per file.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"routinglens/internal/core"
	"routinglens/internal/diag"
	"routinglens/internal/netaddr"
	"routinglens/internal/simroute"
	"routinglens/internal/telemetry"
)

// exit runs the deferred telemetry flush before terminating; os.Exit
// skips deferred calls, so every early return funnels through here.
func exit(tele *telemetry.CLI, code int) {
	if tele.Finish() != nil && code == 0 {
		code = 1
	}
	os.Exit(code)
}

func main() {
	dir := flag.String("dir", "", "directory of router configuration files (required)")
	pathwayHost := flag.String("pathway", "", "print the route pathway graph for this router")
	blocks := flag.Bool("blocks", false, "print the recovered address-space structure")
	suspects := flag.Bool("suspects", false, "print suspected missing routers")
	doAudit := flag.Bool("audit", false, "print best-common-practice findings")
	doWhatif := flag.Bool("whatif", false, "print the survivability (failure) analysis")
	diffDir := flag.String("diff", "", "diff against an older snapshot in this directory")
	dotKind := flag.String("dot", "", "emit Graphviz DOT: 'instances', 'processes', or a router name for its pathway")
	influence := flag.String("influence", "", "print the forward influence (blast radius) of this router")
	monitors := flag.Bool("monitors", false, "suggest route-monitor placement covering all external entry points")
	traceSpec := flag.String("trace", "", "static traceroute: 'SRC-ROUTER,DEST-ADDR' (injects a default route at every external peer)")
	diags := flag.Bool("diags", false, "print parse diagnostics grouped by severity")
	snapshotDir := flag.String("snapshot-dir", "", "directory of analyzed-design snapshots: repeat runs over an unchanged corpus restore in milliseconds instead of re-analyzing")
	tele := telemetry.NewCLI("rdesign")
	tele.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := tele.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "rdesign: %v\n", err)
		os.Exit(2)
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "rdesign: -dir is required")
		flag.Usage()
		exit(tele, 2)
	}

	ctx, stop := tele.Context()
	defer stop()

	opts := []core.AnalyzerOption{
		core.WithParallelism(tele.Parallelism()),
		core.WithFailFast(tele.FailFast),
	}
	if *snapshotDir != "" {
		opts = append(opts, core.WithSnapshotDir(*snapshotDir))
	}
	analyzer := core.NewAnalyzer(opts...)
	res, err := analyzer.AnalyzeDirResult(ctx, filepath.Base(filepath.Clean(*dir)), *dir, nil)
	if err != nil {
		// A cancelled or timed-out run still reports whatever diagnostics
		// the finished workers produced, so an interrupt is a clean
		// partial result instead of silence.
		if ctx.Err() != nil && res != nil && len(res.Diagnostics) > 0 {
			fmt.Fprintf(os.Stderr, "rdesign: interrupted; partial diagnostics from %s:\n", *dir)
			printDiagnostics(res.Diagnostics, true)
		}
		fmt.Fprintf(os.Stderr, "rdesign: %v\n", err)
		exit(tele, 1)
	}
	design, parseDiags := res.Design, res.Diagnostics
	if skipped := core.SkippedFiles(parseDiags); len(skipped) > 0 {
		fmt.Fprintf(os.Stderr, "rdesign: skipped %d unparseable file(s): %s\n",
			len(skipped), strings.Join(skipped, ", "))
	}
	printDiagnostics(parseDiags, *diags)

	switch {
	case *traceSpec != "":
		parts := strings.SplitN(*traceSpec, ",", 2)
		if len(parts) != 2 {
			fmt.Fprintln(os.Stderr, "rdesign: -trace wants 'SRC-ROUTER,DEST-ADDR'")
			exit(tele, 2)
		}
		dest, err := netaddr.ParseAddr(parts[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdesign: %v\n", err)
			exit(tele, 2)
		}
		def := netaddr.PrefixFrom(0, 0)
		path, err := design.Trace(parts[0], dest, []simroute.ExternalRoute{{Prefix: def}})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdesign: %v\n", err)
			exit(tele, 1)
		}
		fmt.Print(path.String())
	case *dotKind != "":
		switch *dotKind {
		case "instances":
			fmt.Print(design.DOTInstanceGraph())
		case "processes":
			fmt.Print(design.DOTProcessGraph())
		default:
			out, err := design.DOTPathway(*dotKind)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rdesign: %v\n", err)
				exit(tele, 1)
			}
			fmt.Print(out)
		}
	case *influence != "":
		inf, err := design.Influence(*influence)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdesign: %v\n", err)
			exit(tele, 1)
		}
		fmt.Print(inf.String())
	case *monitors:
		mp := design.MonitorPlacement()
		if len(mp.Monitors) == 0 {
			fmt.Println("no external route entry points; nothing to monitor")
			break
		}
		for _, in := range mp.Monitors {
			fmt.Printf("monitor instance %d %s — observes %d entry point(s)\n",
				in.ID, in.Label(), len(mp.Covers[in]))
		}
	case *diffDir != "":
		// Given the first analysis, the older one parses only the files
		// that differ between the two directories.
		older, err := analyzer.AnalyzeDirResult(ctx, filepath.Base(filepath.Clean(*diffDir)), *diffDir, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdesign: %v\n", err)
			exit(tele, 1)
		}
		fmt.Print(design.DiffFrom(older.Design).String())
	case *doAudit:
		rep := design.Audit()
		fmt.Print(rep.Summary())
		for _, f := range rep.Findings {
			fmt.Println(f)
		}
	case *doWhatif:
		fmt.Print(design.Survivability().Summary())
	case *pathwayHost != "":
		pw, err := design.Pathway(*pathwayHost)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdesign: %v\n", err)
			exit(tele, 1)
		}
		fmt.Print(pw.String())
	case *blocks:
		fmt.Print(design.AddressSpace.String())
	case *suspects:
		ss := design.SuspectedMissingRouters()
		if len(ss) == 0 {
			fmt.Println("no suspected missing routers")
			break
		}
		for _, s := range ss {
			fmt.Printf("%s/%s (%s): external-facing inside block %s (%.0f%% internal)\n",
				s.Device.Hostname, s.Interface.Name, s.Addr, s.Block, 100*s.InternalShare)
		}
	default:
		fmt.Print(design.Summary())
	}
	exit(tele, 0)
}

// printDiagnostics renders the parse diagnostics: grouped by severity
// (most severe first) when verbose is set, otherwise a one-line count
// summary per severity.
func printDiagnostics(ds []core.Diagnostic, verbose bool) {
	if len(ds) == 0 {
		return
	}
	counts := core.CountBySeverity(ds)
	if verbose {
		levels := diag.Levels()
		for i := len(levels) - 1; i >= 0; i-- {
			sev := levels[i]
			if counts[sev] == 0 {
				continue
			}
			fmt.Fprintf(os.Stderr, "%d %s diagnostic(s):\n", counts[sev], sev)
			for _, d := range ds {
				if d.Severity == sev {
					fmt.Fprintf(os.Stderr, "  %s:%d: %s\n", d.File, d.Line, d.Msg)
				}
			}
		}
		return
	}
	var parts []string
	levels := diag.Levels()
	for i := len(levels) - 1; i >= 0; i-- {
		if n := counts[levels[i]]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, levels[i]))
		}
	}
	fmt.Fprintf(os.Stderr, "rdesign: %d parse diagnostics (%s) — re-run with -diags to see them\n",
		len(ds), strings.Join(parts, ", "))
}
