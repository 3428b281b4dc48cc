package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"routinglens/perfbench/workload"
)

// metric declares one reported metric; the lists below must match
// BENCHMARK.json (a test holds them to it).
type metric struct {
	name, unit string
	// mayBeZero marks a ratio that is legitimately 0 on some workload
	// (every query of an edit cycle misses the just-purged query cache).
	mayBeZero bool
}

// endToEnd are the metrics an operator of rlensd sees, printed with
// --trace 0.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "reload_p50_s", unit: "s"},
	{name: "answer_p50_s", unit: "s"},
	{name: "query_p50_ms", unit: "ms"},
	{name: "query_tail_ms", unit: "ms"},
	{name: "query_qps", unit: "1/s"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "cpu_ms_per_op", unit: "ms"},
}

// perLayer are the traced run's rows, printed with --trace 1. Reload
// rows are per replayed reload, setup rows per setup, query rows per
// timed query; each kind's unattributed row is its measured operation
// time minus its rows. The http rows and cache ratios come from the
// daemon run itself.
var perLayer = []metric{
	{name: "read_hash.s", unit: "s"},
	{name: "parse.s", unit: "s"},
	{name: "parse.files", unit: "count"},
	{name: "topology.s", unit: "s"},
	{name: "procgraph.s", unit: "s"},
	{name: "instance.s", unit: "s"},
	{name: "classify.s", unit: "s"},
	{name: "addrspace.s", unit: "s"},
	{name: "filters.s", unit: "s"},
	{name: "snapshot.load.s", unit: "s"},
	{name: "snapshot.write.s", unit: "s"},
	{name: "snapshot.bytes", unit: "bytes"},
	{name: "designdiff.s", unit: "s"},
	{name: "simroute.s", unit: "s"},
	{name: "simroute.alloc_mb", unit: "MB"},
	{name: "simroute.allocs", unit: "count"},
	{name: "simroute.rounds", unit: "count"},
	{name: "reach.views.s", unit: "s"},
	{name: "reload.unattributed.s", unit: "s"},
	{name: "parsecache.hit_ratio", unit: "ratio", mayBeZero: true},
	{name: "setup.ingest.s", unit: "s"},
	{name: "setup.stages.s", unit: "s"},
	{name: "setup.simroute.s", unit: "s"},
	{name: "setup.reach.views.s", unit: "s"},
	{name: "setup.answers.s", unit: "s"},
	{name: "setup.unattributed.s", unit: "s"},
	{name: "pathway.s", unit: "s"},
	{name: "reach.block.s", unit: "s"},
	{name: "whatif.s", unit: "s"},
	{name: "whatif.alloc_mb", unit: "MB"},
	{name: "query.unattributed.ms", unit: "ms"},
	{name: "qcache.hit_ratio", unit: "ratio", mayBeZero: true},
	{name: "http.summary.p50_ms", unit: "ms"},
	{name: "http.pathway.p50_ms", unit: "ms"},
	{name: "http.reach.p50_ms", unit: "ms"},
	{name: "http.reach_block.p50_ms", unit: "ms"},
	{name: "http.whatif.p50_ms", unit: "ms"},
	{name: "compress.build.s", unit: "s"},
	{name: "compress.reach.s", unit: "s"},
	{name: "compress.whatif.s", unit: "s"},
}

// Replay bounds: the timed queries per (network, generation) handed to
// the traced replay, and the distinct answers per (network, generation,
// endpoint) it cross-checks.
const (
	maxQueriesPerGen  = 400
	maxAnswersPerKind = 100
)

// traceMetrics runs the traced replay of the run recorded in rec and
// fills the result with the per-layer rows.
func traceMetrics(ctx context.Context, spec workload.Spec, root, bin, work string,
	nets map[string]*workload.Net, rec *recorder, setups []float64, out *output) error {
	replay := filepath.Join(work, "replay")
	if err := writeCorpus(root, bin, spec, replay); err != nil {
		return err
	}
	rec.mu.Lock()
	m := min(len(rec.edits), spec.ReplayEdits)
	plan := workload.Plan{
		Workload:    spec.Name,
		Corpus:      replay,
		SnapshotDir: filepath.Join(work, "replay-snap"),
		Nets:        spec.Nets,
		Restart:     spec.Restart,
		SetupTime:   workload.Median(setups),
		Edits:       append([]workload.Edit(nil), rec.edits[:m]...),
		ReloadTimes: append([]float64(nil), rec.editLat[:m]...),
	}
	for _, name := range spec.Nets {
		plan.SetupQueries = append(plan.SetupQueries, workload.SetupQueries(nets[name])...)
	}
	// The replay rebuilds generations 1..m+1 of the edited network and
	// generation 1 of every other one.
	replayed := func(net string, seq int64) bool {
		if net == spec.EditNet {
			return seq <= int64(m)+1
		}
		return seq == 1
	}
	perGen := map[string]int{}
	for _, s := range rec.samples {
		gen := fmt.Sprintf("%s|%d", s.Query.Net, s.Seq)
		if replayed(s.Query.Net, s.Seq) && perGen[gen] < maxQueriesPerGen {
			perGen[gen]++
			plan.Queries = append(plan.Queries, s)
		}
	}
	perKind := map[string]int{}
	for _, k := range sortedKeys(rec.answers) {
		a := rec.answers[k]
		kind := fmt.Sprintf("%s|%d|%s", a.Query.Net, a.Seq, a.Query.Endpoint)
		if replayed(a.Query.Net, a.Seq) && perKind[kind] < maxAnswersPerKind {
			perKind[kind]++
			plan.Answers = append(plan.Answers, workload.Answer{Query: a.Query, Seq: a.Seq, Answer: a.Answer})
		}
	}
	httpP50 := map[string]float64{}
	for _, ep := range workload.Endpoints {
		httpP50["http."+ep+".p50_ms"] = workload.Median(rec.endpointLat[ep]) * 1000
	}
	rec.mu.Unlock()

	planPath := filepath.Join(work, "plan.json")
	data, err := json.Marshal(plan)
	if err != nil {
		return err
	}
	if err := os.WriteFile(planPath, data, 0o644); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "layers"), "-plan", planPath)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	var rep workload.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return fmt.Errorf("traced replay output: %w", err)
	}

	out.result.Metrics = map[string]metricValue{}
	for _, mt := range perLayer {
		v, ok := rep.Rows[mt.name]
		if !ok {
			v, ok = httpP50[mt.name]
		}
		if ok {
			out.result.Metrics[mt.name] = metricValue{v, mt.unit}
		}
	}
	rec.mu.Lock()
	rec.wrong += len(rep.Mismatches)
	for _, msg := range rep.Mismatches {
		rec.problem("traced replay disagrees: %s", msg)
	}
	rec.mu.Unlock()
	out.result.Correct = rep.Checked > 0
	out.info["trace"] = map[string]any{
		"replayed_edits":   m,
		"replayed_queries": len(plan.Queries),
		"answers_checked":  rep.Checked,
		"mismatches":       len(rep.Mismatches),
		// Traced wall time per reload minus the daemon's round trip for
		// the same reloads: what timing every layer call costs, net of
		// the serving work the replay does not repeat.
		"overhead_s_per_reload": rep.ReloadWall - workload.Median(plan.ReloadTimes),
	}
	return nil
}

// writeCorpus writes every network spec serves under dir, one
// subdirectory each: the paper's example network from testdata, and
// corpus networks from netgen.
func writeCorpus(root, bin string, spec workload.Spec, dir string) error {
	netgen := filepath.Join(bin, "netgen")
	for _, name := range spec.Nets {
		dst := filepath.Join(dir, name)
		var err error
		switch name {
		case "example":
			err = copyDir(filepath.Join(root, "testdata", "example"), dst)
		default:
			err = runQuiet(netgen, "-out", dir, "-net", name)
		}
		if err != nil {
			return fmt.Errorf("writing network %s: %w", name, err)
		}
	}
	return nil
}

func runQuiet(bin string, args ...string) error {
	cmd := exec.Command(bin, args...)
	var msg bytes.Buffer
	cmd.Stderr = &msg
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w: %s", filepath.Base(bin), err, strings.TrimSpace(msg.String()))
	}
	return nil
}

func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// hostFacts are recorded with every result.
func hostFacts(root string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit(root),
	}
}

// commit names the source measured: the git commit, or "unknown"
// outside a repository.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
