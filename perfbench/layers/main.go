// Command layers is the benchmark's traced replay. It reads the plan the
// end-to-end driver wrote (perfbench/workload.Plan), redoes that run's
// operations in-process against a fresh copy of the corpus, in the order
// the daemon does them, and reports where the time went: the program's
// own core.Analyzer spans for parse and the analysis stages, and timed
// calls into the public functions core has no span for — snapshot I/O,
// design diff, simulation, reach views, and the query layers. It checks
// every daemon answer in the plan against the answer the layer calls
// give, and prints a workload.Report as JSON.
//
// The program itself is not instrumented beyond the spans it already
// emits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"routinglens/internal/compress"
	"routinglens/internal/core"
	"routinglens/internal/netaddr"
	"routinglens/internal/parsecache"
	"routinglens/internal/pathway"
	"routinglens/internal/reach"
	"routinglens/internal/simroute"
	"routinglens/internal/snapshot"
	"routinglens/internal/telemetry"
	"routinglens/internal/whatif"

	"routinglens/perfbench/workload"
)

func main() {
	planPath := flag.String("plan", "", "plan written by the benchmark driver")
	flag.Parse()
	data, err := os.ReadFile(*planPath)
	if err != nil {
		fatal(err)
	}
	var plan workload.Plan
	if err := json.Unmarshal(data, &plan); err != nil {
		fatal(fmt.Errorf("%s: %w", *planPath, err))
	}
	rep, err := replay(&plan)
	if err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "layers: %v\n", err)
	os.Exit(1)
}

// tracer accumulates layer time (seconds) and counts for one operation
// kind.
type tracer struct {
	secs   map[string]float64
	counts map[string]float64
	last   float64 // the most recent span's seconds
}

func newTracer() *tracer {
	return &tracer{secs: map[string]float64{}, counts: map[string]float64{}}
}

// span times f under name.
func (t *tracer) span(name string, f func()) {
	start := time.Now()
	f()
	t.last = time.Since(start).Seconds()
	t.secs[name] += t.last
}

// memSpan times f under name and also records the bytes it allocated
// (name.alloc_mb) and its allocation count (name.allocs).
func (t *tracer) memSpan(name string, f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	t.secs[name] += time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	t.counts[name+".alloc_mb"] += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.counts[name+".allocs"] += float64(after.Mallocs - before.Mallocs)
}

// network is one served network's replayed state.
type network struct {
	name, dir string
	// an is the network's analyzer, built as the daemon builds it, so
	// its stat records, parse-cache traffic and snapshot memo carry over
	// from one load to the next as the daemon's do.
	an     *core.Analyzer
	design *core.Design
	reach  *reach.Analysis
	whatif *whatif.Analysis
	seq    int64
}

type replayer struct {
	plan *workload.Plan
	// cache is the fleet's shared parse cache, at the daemon's default
	// bound, so the replay re-parses exactly what the daemon does.
	cache  *parsecache.Cache
	nets   map[string]*network
	order  []*network
	reload *tracer
	setup  *tracer
	query  *tracer
	rep    *workload.Report
	// queries and answers left to replay, consumed per generation.
	queries []workload.QuerySample
	answers []workload.Answer
}

var defaultRoute = []simroute.ExternalRoute{{Prefix: netaddr.PrefixFrom(0, 0)}}

// quiet discards the analyzers' logs, which the daemon writes to a file.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// newProcess gives every network a fresh analyzer over a fresh shared
// parse cache: the state a newly started daemon has.
func (r *replayer) newProcess() {
	r.cache = parsecache.New(parsecache.DefaultMaxEntries, 0)
	for _, n := range r.order {
		n.an = core.NewAnalyzer(core.WithParallelism(runtime.GOMAXPROCS(0)), core.WithLogger(quiet),
			core.WithCache(r.cache), core.WithCacheOrigin(n.name), core.WithSnapshotDir(r.plan.SnapshotDir))
		n.design = nil
	}
}

func replay(plan *workload.Plan) (*workload.Report, error) {
	r := &replayer{
		plan:    plan,
		nets:    map[string]*network{},
		reload:  newTracer(),
		setup:   newTracer(),
		query:   newTracer(),
		rep:     &workload.Report{Rows: map[string]float64{}, Mismatches: []string{}},
		queries: plan.Queries,
		answers: plan.Answers,
	}
	for _, name := range plan.Nets {
		n := &network{name: name, dir: filepath.Join(plan.Corpus, name)}
		r.nets[name] = n
		r.order = append(r.order, n)
	}

	// Setup: what the daemon does from exec to every network's first
	// answers. A restart first needs the snapshots an untimed cold load
	// leaves behind, then starts from an empty process state.
	r.newProcess()
	if plan.Restart {
		for _, n := range r.order {
			if _, err := r.load(n, newTracer()); err != nil {
				return nil, err
			}
		}
		r.newProcess()
	}
	for _, n := range r.order {
		if _, err := r.load(n, r.setup); err != nil {
			return nil, err
		}
		n.seq = 1
		r.setup.span("answers", func() {
			for _, q := range plan.SetupQueries {
				if q.Net == n.name {
					if _, err := r.answer(n, q); err != nil {
						r.rep.Mismatches = append(r.rep.Mismatches, err.Error())
					}
				}
			}
		})
	}
	for _, n := range r.order {
		r.replayQueries(n)
	}

	// Reloads: each edit cycle of the run, in order.
	var wall float64
	for _, e := range plan.Edits {
		n := r.nets[e.Net]
		if n == nil {
			return nil, fmt.Errorf("edit of unknown network %s", e.Net)
		}
		if err := e.Apply(n.dir); err != nil {
			return nil, err
		}
		secs, err := r.load(n, r.reload)
		if err != nil {
			return nil, err
		}
		wall += secs
		n.seq++
		r.replayQueries(n)
	}
	if len(plan.Edits) == 0 {
		return nil, fmt.Errorf("the run completed no edit cycle to replay")
	}
	r.rep.ReloadWall = wall / float64(len(plan.Edits))
	r.compressRows()
	r.rows()
	return r.rep, nil
}

// spanRows are the core.Analyzer spans the replay reports as rows: the
// parse stage and the six analysis stages.
var spanRows = map[string]bool{"parse": true, "topology": true, "procgraph": true,
	"instance": true, "classify": true, "addrspace": true, "filters": true}

// load is one load of n's directory as the daemon's reload does it: the
// network's analyzer analyzes the directory, the new design is diffed
// against the serving one, and the reach views are warmed over a fresh
// simulation. It returns the time that work took.
//
// The parse and stage rows are the analyzer's own spans. With
// parallelism above one the three stage chains overlap, so their rows
// can add up to more than the wall time they took. Snapshot I/O runs
// inside AnalyzeDir without a span: the replay times snapshot.Load and
// snapshot.Write on the snapshot the load left behind, where the load
// decoded or wrote one. read_hash is the rest of AnalyzeDir: stat, read
// and hash the files, the snapshot key, and the stat and cache
// bookkeeping.
func (r *replayer) load(n *network, t *tracer) (float64, error) {
	snapPath := filepath.Join(r.plan.SnapshotDir, n.name+snapshot.FileExt)
	_, statErr := os.Stat(snapPath)
	decodes := statErr == nil // a present snapshot is decoded, fresh or stale

	col := telemetry.NewCollector()
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithRegistry(telemetry.WithCollector(context.Background(), col), reg)
	start := time.Now()
	d, _, err := n.an.AnalyzeDir(ctx, n.dir)
	analyzeDir := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	spans := 0.0 // the top-level spans: parse and analyze
	for _, rec := range col.Records() {
		if spanRows[rec.Name] {
			t.secs[rec.Name] += rec.Duration.Seconds()
		}
		if rec.Depth == 0 && (rec.Name == "parse" || rec.Name == "analyze") {
			spans += rec.Duration.Seconds()
		}
	}
	t.counts["parse.files"] += reg.Gauge(core.MetricFilesReparsed).Value()
	wrote := reg.Counter(core.MetricSnapshotWrites, telemetry.L("net", n.name)).Value() > 0

	snapIO := 0.0
	var snap *snapshot.Snapshot
	loadSnap := func() { snap, err = snapshot.Load(snapPath) }
	if decodes {
		t.span("snapshot.load", loadSnap)
		snapIO += t.last
	} else {
		loadSnap()
	}
	if err != nil {
		return 0, fmt.Errorf("reading back %s: %w", snapPath, err)
	}
	if wrote {
		scratch := snapPath + ".replay"
		t.span("snapshot.write", func() { err = snapshot.Write(scratch, snap) })
		snapIO += t.last
		if err != nil {
			return 0, err
		}
		if fi, err := os.Stat(scratch); err == nil {
			t.counts["snapshot.bytes"] += float64(fi.Size())
		}
		os.Remove(scratch)
	}
	t.secs["read_hash"] += analyzeDir - spans - snapIO

	work := time.Now()
	if n.design != nil {
		t.span("designdiff", func() { d.DiffFrom(n.design) })
	}
	var sim *simroute.Sim
	t.memSpan("simroute", func() {
		sim = simroute.New(d.Instances.Graph, defaultRoute)
		t.counts["simroute.rounds"] += float64(sim.Run())
	})
	var an *reach.Analysis
	t.span("reach.views", func() {
		an = reach.AnalyzeReduced(d.Instances, sim, d.AddressSpace)
		an.HasDefaultRoute()
		an.AdmittedExternalRoutes()
	})
	n.design, n.reach, n.whatif = d, an, nil
	return analyzeDir + time.Since(work).Seconds(), nil
}

// answer computes the canonical answer to q from n's current generation
// through the layer a daemon query calls, computing the generation's
// survivability analysis on first use.
func (r *replayer) answer(n *network, q workload.Query) (string, error) {
	d := n.design
	switch q.Endpoint {
	case "summary":
		return workload.SummaryAnswer(len(d.Network.Devices), d.Topology.TotalInterfaces,
			len(d.Instances.Instances), d.Classification.String()), nil
	case "pathway":
		g, err := pathway.Compute(d.Instances, q.Router)
		if err != nil {
			return "", err
		}
		hops := make([]string, len(g.Hops))
		for i, h := range g.Hops {
			hops[i] = workload.Hop(h.Label(), h.Depth)
		}
		return workload.PathwayAnswer(g.Router.Hostname, g.ReachesExternal, hops), nil
	case "reach":
		var admitted []string
		for _, p := range n.reach.AdmittedExternalRoutes() {
			admitted = append(admitted, p.String())
		}
		return workload.ReachAnswer(n.reach.HasDefaultRoute(), admitted), nil
	case "reach_block":
		src, err1 := netaddr.ParsePrefix(q.Src)
		dst, err2 := netaddr.ParsePrefix(q.Dst)
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("%s: bad block pair", q.Path())
		}
		return workload.BlockAnswer(src.String(), dst.String(), n.reach.BlockReachesBlock(src, dst)), nil
	case "whatif":
		if n.whatif == nil {
			n.whatif = whatif.Analyze(d.Instances)
		}
		w := n.whatif
		return workload.WhatifAnswer(len(w.RouterFailures), len(w.LinkFailures), len(w.Bridges), len(w.StaticRisks)), nil
	}
	return "", fmt.Errorf("unknown endpoint %q", q.Endpoint)
}

// queryLayer maps an endpoint to the layer row its uncached daemon
// handler pays for; summary and the network-wide reach view read
// precomputed state and pay none.
var queryLayer = map[string]string{"pathway": "pathway", "reach_block": "reach.block", "whatif": "whatif"}

// replayQueries times the run's queries on n's current generation and
// checks the daemon's answers from it. A query the daemon served from
// its query cache calls no layer; a whatif query pays for the
// survivability analysis only when the generation has not computed it.
func (r *replayer) replayQueries(n *network) {
	keep := r.queries[:0]
	for _, s := range r.queries {
		if s.Query.Net != n.name || s.Seq != n.seq {
			keep = append(keep, s)
			continue
		}
		r.rep.Rows["query.count"]++
		layer := queryLayer[s.Query.Endpoint]
		r.query.secs["latency"] += s.Latency
		if s.Hit || layer == "" || (layer == "whatif" && n.whatif != nil) {
			continue
		}
		f := func() {
			if _, err := r.answer(n, s.Query); err != nil {
				r.rep.Mismatches = append(r.rep.Mismatches, err.Error())
			}
		}
		if layer == "whatif" {
			r.query.memSpan(layer, f)
		} else {
			r.query.span(layer, f)
		}
	}
	r.queries = keep

	rest := r.answers[:0]
	for _, a := range r.answers {
		if a.Query.Net != n.name || a.Seq != n.seq {
			rest = append(rest, a)
			continue
		}
		r.rep.Checked++
		got, err := r.answer(n, a.Query)
		switch {
		case err != nil:
			r.rep.Mismatches = append(r.rep.Mismatches, fmt.Sprintf("%s @%d: %v", a.Query.Path(), a.Seq, err))
		case got != a.Answer:
			r.rep.Mismatches = append(r.rep.Mismatches, fmt.Sprintf("%s @%d: daemon %q, layers %q", a.Query.Path(), a.Seq, a.Answer, got))
		}
	}
	r.answers = rest
}

// compressRows measures the quotient path beside the full one on the
// largest served network's last generation: the build, a reach
// simulation plus the network-wide views, and the survivability
// analysis. Nothing serves it by default; the rows give the
// keep-or-delete decision its data.
func (r *replayer) compressRows() {
	big := r.order[0]
	for _, n := range r.order {
		if len(n.design.Network.Devices) > len(big.design.Network.Devices) {
			big = n
		}
	}
	d := big.design
	t := newTracer()
	var q *compress.Quotient
	t.span("build", func() { q = compress.Compute(d.Instances) })
	t.span("reach", func() {
		an := q.Reach(d.AddressSpace, defaultRoute)
		an.HasDefaultRoute()
		an.AdmittedExternalRoutes()
	})
	t.span("whatif", func() { q.Whatif() })
	for name, v := range t.secs {
		r.rep.Rows["compress."+name+".s"] = v
	}
}

// rows turns the three tracers into the report's per-layer rows.
func (r *replayer) rows() {
	rows := r.rep.Rows
	edits := len(r.plan.Edits)

	reloadRows, un := workload.Rows(r.reload.secs, edits, mean(r.plan.ReloadTimes))
	for name, v := range reloadRows {
		rows[name+".s"] = v
	}
	rows["reload.unattributed.s"] = un
	for name, v := range r.reload.counts {
		rows[name] = v / float64(edits)
	}
	for _, name := range []string{"parse.files", "snapshot.bytes"} {
		if _, ok := rows[name]; !ok {
			rows[name] = 0
		}
	}

	groups := map[string]float64{}
	for name, v := range r.setup.secs {
		group := "stages"
		switch name {
		case "read_hash", "snapshot.load", "parse", "snapshot.write":
			group = "ingest"
		case "simroute", "reach.views", "answers":
			group = name
		case "designdiff":
			group = "ingest" // never runs at setup: no previous design
		}
		groups[group] += v
	}
	setupRows, un := workload.Rows(groups, 1, r.plan.SetupTime)
	for name, v := range setupRows {
		rows["setup."+name+".s"] = v
	}
	rows["setup.unattributed.s"] = un

	queries := int(rows["query.count"])
	delete(rows, "query.count")
	latency := r.query.secs["latency"]
	delete(r.query.secs, "latency")
	for _, layer := range queryLayer {
		r.query.secs[layer] += 0 // a layer no replayed query called costs 0 per query
	}
	opTime := 0.0
	if queries > 0 {
		opTime = latency / float64(queries)
	}
	queryRows, un := workload.Rows(r.query.secs, queries, opTime)
	for name, v := range queryRows {
		rows[name+".s"] = v
	}
	rows["query.unattributed.ms"] = un * 1000
	if queries > 0 {
		rows["whatif.alloc_mb"] = r.query.counts["whatif.alloc_mb"] / float64(queries)
	}
	for name, v := range rows {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rows[name] = 0
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
