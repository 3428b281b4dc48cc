package telemetry

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"runtime"
	"time"
)

// CLI bundles the observability and concurrency flags every binary in
// cmd/ exposes:
//
//	-v / -vv            info / debug structured logs (stderr)
//	-log-format FORMAT  text (default) or json
//	-metrics FILE       write end-of-run metrics to FILE ("-" = stdout)
//	-metrics-format F   prom (Prometheus text, default) or json
//	-pprof ADDR         serve net/http/pprof on ADDR for the run
//	-j N                parallel workers for reading, hashing and
//	                    parsing the configs and for the analysis
//	                    stages (0 = GOMAXPROCS); output is
//	                    deterministic whatever N
//	-fail-fast          abort on the first unreadable or unparseable
//	                    input file instead of skipping it
//	-timeout D          overall analysis deadline (0 = none); combined
//	                    with SIGINT via Context() so interrupted runs
//	                    exit cleanly with partial diagnostics
//
// Use it as:
//
//	tele := telemetry.NewCLI("rdesign")
//	tele.RegisterFlags(flag.CommandLine)
//	flag.Parse()
//	defer tele.Finish()
//	tele.Activate()
type CLI struct {
	Verbose       bool
	VeryVerbose   bool
	LogFormat     string
	MetricsPath   string
	MetricsFormat string
	PprofAddr     string
	Jobs          int
	FailFast      bool
	Timeout       time.Duration

	prog      string
	registry  *Registry
	collector *Collector
}

// NewCLI creates the flag bundle for the named program, bound to the
// default registry and a span collector of its own, which Context
// attaches and Finish reports.
func NewCLI(prog string) *CLI {
	return &CLI{prog: prog, registry: Default, collector: NewCollector()}
}

// RegisterFlags declares the observability flags on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&c.Verbose, "v", false, "verbose: info-level structured logs and an end-of-run stage-timing summary")
	fs.BoolVar(&c.VeryVerbose, "vv", false, "very verbose: debug-level logs plus the full span tree (implies -v)")
	fs.StringVar(&c.LogFormat, "log-format", "text", "structured log format: text or json")
	fs.StringVar(&c.MetricsPath, "metrics", "", "write end-of-run metrics to this file ('-' for stdout)")
	fs.StringVar(&c.MetricsFormat, "metrics-format", "prom", "metrics export format: prom (Prometheus text) or json")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	fs.IntVar(&c.Jobs, "j", 0, "parallel workers for reading, hashing and parsing the configs and for the analysis stages (0 = GOMAXPROCS, 1 = sequential; the route simulator shards by GOMAXPROCS instead; output is identical either way)")
	fs.BoolVar(&c.FailFast, "fail-fast", false, "abort on the first unreadable or unparseable input file (default: skip it, report it, and continue)")
	fs.DurationVar(&c.Timeout, "timeout", 0, "overall analysis deadline, e.g. 30s (0 = none); on expiry the run cancels cleanly and reports partial diagnostics")
}

// Context builds the run's root context: it carries the CLI's span
// collector, so the stage timings Finish prints cover every span
// started under it; it is cancelled on SIGINT — so an interrupted run
// unwinds through its deferred telemetry flush and can print partial
// diagnostics instead of dying mid-write — and bounded by -timeout when
// one was given. Defer the returned stop function from main; after
// cancellation a second SIGINT falls back to the default abrupt exit,
// so a wedged run can still be killed.
func (c *CLI) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(WithCollector(context.Background(), c.collector), os.Interrupt)
	if c.Timeout > 0 {
		tctx, cancel := context.WithTimeout(ctx, c.Timeout)
		return tctx, func() { cancel(); stop() }
	}
	return ctx, stop
}

// Parallelism resolves -j to a concrete worker count (always >= 1).
func (c *CLI) Parallelism() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Verbosity returns 0, 1 (-v), or 2 (-vv).
func (c *CLI) Verbosity() int {
	switch {
	case c.VeryVerbose:
		return 2
	case c.Verbose:
		return 1
	default:
		return 0
	}
}

// Activate applies the parsed flags: it installs the default logger and,
// if requested, starts the pprof server. Call it once, after flag.Parse.
func (c *CLI) Activate() error {
	switch c.LogFormat {
	case "text", "json":
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", c.LogFormat)
	}
	switch c.MetricsFormat {
	case "prom", "json":
	default:
		return fmt.Errorf("unknown -metrics-format %q (want prom or json)", c.MetricsFormat)
	}
	SetLogger(NewLogger(os.Stderr, c.LogFormat, VerbosityLevel(c.Verbosity())).With("prog", c.prog))
	if c.PprofAddr != "" {
		ln, err := net.Listen("tcp", c.PprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listen: %w", err)
		}
		Logger().Info("pprof server listening", "addr", ln.Addr().String(),
			"url", fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
		go func() {
			// The listener dies with the process; pprof is per-run.
			_ = http.Serve(ln, nil)
		}()
	}
	return nil
}

// Finish emits the end-of-run artifacts: the metrics export when
// -metrics was given, and the stage-timing summary (plus span tree under
// -vv) on stderr when verbose. Meant to be deferred from main. A failed
// metrics write is reported on stderr and returned so callers can exit
// nonzero instead of silently producing no metrics file.
func (c *CLI) Finish() error {
	var werr error
	if c.MetricsPath != "" {
		if err := c.writeMetrics(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing metrics: %v\n", c.prog, err)
			werr = err
		}
	}
	if c.Verbosity() >= 1 {
		fmt.Fprintf(os.Stderr, "\n%s stage timings:\n%s", c.prog, StageSummary(c.collector))
		if c.Verbosity() >= 2 {
			fmt.Fprintf(os.Stderr, "\nspan tree:\n%s", Tree(c.collector))
		}
	}
	return werr
}

func (c *CLI) writeMetrics() error {
	out := os.Stdout
	if c.MetricsPath != "-" && c.MetricsPath != "/dev/stdout" {
		f, err := os.Create(c.MetricsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if c.MetricsFormat == "json" {
		return c.registry.WriteJSON(out)
	}
	return c.registry.WritePrometheus(out)
}
