// Command perfbench is the routinglens benchmark. It builds cmd/rlensd
// and cmd/netgen from the checkout, writes a workload's corpus with
// netgen, starts the daemon as a separate process and drives it over
// loopback HTTP with closed-loop clients, checks every answer, and
// prints one JSON result line. With --trace 1 it then runs the traced
// replay (./layers), which redoes the run's operations in-process and
// times each layer, and reports the per-layer rows instead of the
// end-to-end metrics.
//
// The driver itself imports no package of the program: it measures
// whatever rlensd serves, however its insides change.
//
// Run it from the repository root through its wrapper, which keeps every
// build artifact under .bench_build:
//
//	bash perfbench/run.sh --workload net5-edit-reload --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"routinglens/perfbench/workload"
)

// heldOutSeed is never used while tuning the benchmark or a change; a
// performance claim must also hold on it.
const heldOutSeed = 20041

// setupRuns is how many daemon starts a run times; setup_s is their
// median.
const setupRuns = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	faults   string // rlensd -faults rules (tests)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "operation-sequence seed")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 reports the traced run's per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.faults, "daemon-faults", "", "arm rlensd fault injection with these rules (testing the checks)")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workload.SpecFor(o.workload); !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	out, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	info, _ := json.Marshal(out.info)
	line, _ := json.Marshal(out.result)
	fmt.Printf("%s\n%s\n", info, line)
	if !out.result.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, s := range workload.Specs {
		names = append(names, s.Name)
	}
	return strings.Join(names, ", ")
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// output is a run's result plus the facts printed beside it.
type output struct {
	result result
	info   map[string]any
}

// run performs one benchmark run from the repository root.
func run(ctx context.Context, o options) (*output, error) {
	spec, _ := workload.SpecFor(o.workload)
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "bin")
	if err := goBuild(root, bin, "./cmd/rlensd", "./cmd/netgen"); err != nil {
		return nil, err
	}
	if o.trace {
		if err := goBuild(filepath.Join(root, "perfbench"), bin, "./layers"); err != nil {
			return nil, err
		}
	}
	work := filepath.Join(build, "work", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	corpus := filepath.Join(work, "corpus")
	if err := writeCorpus(root, bin, spec, corpus); err != nil {
		return nil, err
	}
	nets := map[string]*workload.Net{}
	var netList []*workload.Net
	for _, name := range spec.Nets {
		n, err := workload.LoadNet(name, filepath.Join(corpus, name))
		if err != nil {
			return nil, err
		}
		nets[name] = n
		netList = append(netList, n)
	}

	rec := newRecorder()
	hc := newHTTPClient(runtime.NumCPU())
	defer hc.CloseIdleConnections()
	// newGens starts the generation tracking of a fresh daemon, which
	// serves generation 1 of every network. A daemon's clients share it.
	newGens := func() map[string]*generation {
		gens := map[string]*generation{}
		for _, name := range spec.Nets {
			gens[name] = &generation{}
			gens[name].committed.Store(1)
		}
		return gens
	}
	newClient := func(d *daemon, gens map[string]*generation) *client {
		return &client{http: hc, base: d.base, corpus: corpus, nets: nets, gens: gens, rec: rec}
	}
	// setup starts a daemon over the corpus and times it until every
	// network is ready and has answered every endpoint once.
	setup := func(snapDir string) (*daemon, float64, error) {
		args := []string{"-corpus", corpus, "-snapshot-dir", snapDir}
		if o.faults != "" {
			args = append(args, "-faults", o.faults)
		}
		start := time.Now()
		d, err := startDaemon(filepath.Join(bin, "rlensd"), args, filepath.Join(work, "rlensd.log"))
		if err != nil {
			return nil, 0, err
		}
		c := newClient(d, newGens())
		for _, n := range netList {
			if err := c.waitReady(ctx, n.Name); err != nil {
				d.stop()
				return nil, 0, err
			}
			for _, q := range workload.SetupQueries(n) {
				c.query(ctx, q, 1, false, setupQuery)
			}
		}
		return d, time.Since(start).Seconds(), nil
	}

	// Setup: cold starts from an empty snapshot directory, or, where the
	// workload restarts from snapshots, restarts after an untimed prep run
	// has written them.
	snapDir := func(i int) string { return filepath.Join(work, fmt.Sprintf("snap%d", i)) }
	if spec.Restart {
		d, _, err := setup(snapDir(0))
		if err != nil {
			return nil, fmt.Errorf("prep run: %w", err)
		}
		d.stop()
	}
	var setups []float64
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.stop()
		}
		dir := snapDir(i)
		if spec.Restart {
			dir = snapDir(0)
		}
		var secs float64
		if d, secs, err = setup(dir); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}

	// The clients' closed loops run in phases: a warm-up, if the
	// workload has one, then the timed phase. A phase ends when its
	// deadline has passed and every client has finished the operation it
	// had in flight; the generators carry over.
	gens := newGens()
	var clients []*client
	var generators []*workload.Generator
	for i := range spec.Clients {
		gen, err := workload.NewGenerator(spec, netList, i, o.seed)
		if err != nil {
			d.stop()
			return nil, err
		}
		clients = append(clients, newClient(d, gens))
		generators = append(generators, gen)
	}
	phase := func(deadline time.Time) {
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.drive(ctx, generators[i], deadline)
			}()
		}
		wg.Wait()
	}
	phase(time.Now().Add(time.Duration(spec.Warmup) * time.Second))

	counters := []string{"routinglens_querycache_hits_total", "routinglens_querycache_misses_total",
		"routinglens_parsecache_hits_total", "routinglens_parsecache_misses_total"}
	before, err1 := scrapeCounters(ctx, hc, d.base, counters...)
	pBefore, err2 := readProc(d.cmd.Process.Pid)
	if err := errors.Join(err1, err2); err != nil {
		d.stop()
		return nil, err
	}
	rec.startTiming()
	phaseStart := time.Now()
	phase(phaseStart.Add(time.Duration(o.seconds) * time.Second))
	elapsed := time.Since(phaseStart).Seconds()
	pAfter, err1 := readProc(d.cmd.Process.Pid)
	after, err2 := scrapeCounters(ctx, hc, d.base, counters...)
	d.stop()
	if err := errors.Join(err1, err2); err != nil {
		return nil, fmt.Errorf("%w\nrlensd log tail:\n%s", err, logTail(filepath.Join(work, "rlensd.log"), 30))
	}

	out := &output{info: map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       o.seconds,
		"host":          hostFacts(root),
		"setup_runs_s":  setups,
	}}
	ratio := func(hits, misses string) float64 {
		h, m := after[hits]-before[hits], after[misses]-before[misses]
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	qcache := ratio("routinglens_querycache_hits_total", "routinglens_querycache_misses_total")
	pcache := ratio("routinglens_parsecache_hits_total", "routinglens_parsecache_misses_total")
	out.info["qcache_hit_ratio"], out.info["parsecache_hit_ratio"] = qcache, pcache
	if o.trace {
		if err := traceMetrics(ctx, spec, root, bin, work, nets, rec, setups, out); err != nil {
			return nil, err
		}
		out.result.Metrics["qcache.hit_ratio"] = metricValue{qcache, "ratio"}
		out.result.Metrics["parsecache.hit_ratio"] = metricValue{pcache, "ratio"}
	} else {
		endToEndMetrics(rec, spec, setups, elapsed, pAfter.cpu-pBefore.cpu, pAfter.hwmMiB, out)
	}
	problems := checkMetrics(out.result.Metrics, o.trace)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	bad := rec.failed + rec.shed + rec.wrong
	out.result.Attempted = rec.attempted
	out.result.Failed = bad
	out.result.Correct = bad == 0 && len(problems) == 0 && out.result.Correct
	if rec.attempted > 0 {
		out.info["error_ratio"] = float64(bad) / float64(rec.attempted)
	}
	out.info["shed"], out.info["wrong"] = rec.shed, rec.wrong
	for _, p := range append(rec.problems, problems...) {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
	}
	return out, nil
}

// logTail returns the last n lines of the file at path.
func logTail(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// waitReady polls the network's readiness probe until it answers 200.
func (c *client) waitReady(ctx context.Context, net string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, _, _, err := c.get(ctx, "/readyz?net="+net)
		if err == nil && status == 200 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("network %s not ready after 60s (status %d, %v)", net, status, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// endToEndMetrics fills the result's metrics from an untraced run whose
// timed phase took elapsed seconds.
func endToEndMetrics(rec *recorder, spec workload.Spec, setups []float64, elapsed float64, cpu time.Duration, hwmMiB float64, out *output) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	tail, ok := workload.Percentile(rec.queryLat, spec.TailPct)
	if !ok {
		rec.problem("only %d pooled queries: too few for their p%d", len(rec.queryLat), spec.TailPct)
	}
	ops := rec.queries + rec.reloads
	m := map[string]float64{
		"setup_s":       workload.Median(setups),
		"reload_p50_s":  workload.Median(rec.reloadLat),
		"answer_p50_s":  workload.Median(rec.answerLat),
		"query_p50_ms":  workload.Median(rec.queryLat) * 1000,
		"query_tail_ms": tail * 1000,
		"query_qps":     float64(len(rec.queryLat)) / elapsed,
		"peak_rss_mb":   hwmMiB,
	}
	if ops > 0 {
		m["cpu_ms_per_op"] = float64(cpu.Microseconds()) / 1000 / float64(ops)
	}
	out.result.Metrics = map[string]metricValue{}
	for _, mt := range endToEnd {
		out.result.Metrics[mt.name] = metricValue{m[mt.name], mt.unit}
	}
	out.result.Correct = ok
	pcts := map[string]float64{}
	for _, p := range []int{90, 99} {
		if v, ok := workload.Percentile(rec.queryLat, p); ok {
			pcts[fmt.Sprintf("p%d", p)] = v * 1000
		}
	}
	out.info["query_pcts_ms"] = pcts
	out.info["query_tail_pct"] = spec.TailPct
	out.info["warmup_s"] = spec.Warmup
	out.info["samples"] = map[string]int{
		"setups": len(setups), "reloads": len(rec.reloadLat), "answers": len(rec.answerLat), "queries": len(rec.queryLat),
	}
	endpointP50 := map[string]float64{}
	for ep, lat := range rec.endpointLat {
		endpointP50[ep] = workload.Median(lat) * 1000
	}
	out.info["endpoint_p50_ms"] = endpointP50
	out.info["cpu_s"] = cpu.Seconds()
	out.info["ops"] = ops
}

// checkMetrics reports declared metrics the run could not measure: a
// zero time or count means an operation kind never completed.
func checkMetrics(m map[string]metricValue, trace bool) []string {
	var problems []string
	list := endToEnd
	if trace {
		list = perLayer
	}
	for _, mt := range list {
		v, ok := m[mt.name]
		switch {
		case !ok:
			problems = append(problems, "metric "+mt.name+" missing")
		case v.Value == 0 && !mt.mayBeZero:
			problems = append(problems, "metric "+mt.name+" measured nothing")
		}
	}
	return problems
}

// goBuild builds pkgs of the module at dir into out.
func goBuild(dir, out string, pkgs ...string) error {
	cmd := exec.Command("go", append([]string{"build", "-o", out + string(filepath.Separator)}, pkgs...)...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building %s in %s: %w", strings.Join(pkgs, " "), dir, err)
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
