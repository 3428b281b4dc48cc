// Package experiments reproduces every table and figure of the paper's
// evaluation against the synthetic corpus, reporting paper-reported values
// next to measured ones. The absolute numbers differ — the corpus is a
// calibrated substitute for the proprietary configurations — but each
// experiment states the property that must hold for the paper's claim and
// checks it.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"routinglens/internal/classify"
	"routinglens/internal/devmodel"
	"routinglens/internal/filters"
	"routinglens/internal/instance"
	"routinglens/internal/netgen"
	"routinglens/internal/procgraph"
	"routinglens/internal/telemetry"
	"routinglens/internal/topology"
)

// NetworkAnalysis bundles every model derived from one network.
type NetworkAnalysis struct {
	Gen     *netgen.Generated
	Net     *devmodel.Network
	Top     *topology.Topology
	Graph   *procgraph.Graph
	Model   *instance.Model
	Design  classify.Evidence
	Filters *filters.NetworkStats
}

// Workspace is the fully analyzed corpus shared by all experiments.
type Workspace struct {
	Corpus *netgen.Corpus
	Nets   []*NetworkAnalysis
	// SkippedNetworks names corpus networks a lenient build dropped
	// because their analysis failed (empty for fail-fast builds).
	SkippedNetworks []string

	byName map[string]*NetworkAnalysis
}

// DefaultSeed is the corpus seed used by cmd/reproduce and the benches.
const DefaultSeed = 2004 // the paper's publication year

// BuildWorkspace generates the corpus and runs the full extraction pipeline
// on every network, using every available core.
func BuildWorkspace(seed int64) (*Workspace, error) {
	return BuildWorkspaceContext(context.Background(), seed)
}

// BuildWorkspaceContext is BuildWorkspace with the caller's telemetry
// context: a "workspace" span wraps the run, with one "corpus-generate"
// child and a "network-analyze" child per network.
func BuildWorkspaceContext(ctx context.Context, seed int64) (*Workspace, error) {
	return BuildWorkspaceParallel(ctx, seed, 0)
}

// BuildWorkspaceParallel is BuildWorkspaceContext with a bounded worker
// pool: up to parallelism networks (0 means GOMAXPROCS) are analyzed
// concurrently, each under its own "network-analyze" span. Whatever the
// pool size, ws.Nets holds the networks in corpus order and every
// derived model is identical to a sequential run — the networks are
// independent. Cancelling ctx stops the pool: no new network is picked
// up and the call returns ctx's error.
//
// The build is lenient: a network whose analysis fails is dropped and
// recorded in ws.SkippedNetworks instead of failing the whole corpus.
// Use BuildWorkspaceOpts with failFast to abort on the first failure.
func BuildWorkspaceParallel(ctx context.Context, seed int64, parallelism int) (*Workspace, error) {
	return BuildWorkspaceOpts(ctx, seed, parallelism, false)
}

// BuildWorkspaceOpts is BuildWorkspaceParallel with an explicit failure
// policy: failFast aborts on the first network whose analysis fails
// (lowest corpus index, as a sequential run would); lenient records it
// in ws.SkippedNetworks and continues. Context cancellation is always
// fatal.
func BuildWorkspaceOpts(ctx context.Context, seed int64, parallelism int, failFast bool) (*Workspace, error) {
	ctx, root := telemetry.StartSpan(ctx, "workspace")
	defer root.End()
	log := telemetry.Logger()

	_, genSpan := telemetry.StartSpan(ctx, "corpus-generate")
	c := netgen.GenerateCorpus(seed)
	genDur := genSpan.End()
	log.Info("corpus generated", "networks", len(c.Networks), "seed", seed, "duration", genDur)

	analyses := make([]*NetworkAnalysis, len(c.Networks))
	errs := make([]error, len(c.Networks))
	analyzeOne := func(g *netgen.Generated) (*NetworkAnalysis, error) {
		nctx, netSpan := telemetry.StartSpan(ctx, "network-analyze")
		n, err := g.Build()
		if err != nil {
			err = fmt.Errorf("experiments: %w", err)
			netSpan.Fail(err)
			netSpan.End()
			return nil, err
		}
		var top *topology.Topology
		var graph *procgraph.Graph
		var model *instance.Model
		stage := func(name string, f func()) {
			_, sp := telemetry.StartSpan(nctx, name)
			f()
			sp.End()
		}
		stage("topology", func() { top = topology.Build(n) })
		stage("procgraph", func() { graph = procgraph.Build(n, top) })
		stage("instance", func() { model = instance.Compute(graph) })
		na := &NetworkAnalysis{Gen: g, Net: n, Top: top, Graph: graph, Model: model}
		stage("classify", func() { na.Design = classify.ClassifyDesign(model) })
		stage("filters", func() { na.Filters = filters.Analyze(n, top) })
		d := netSpan.End()
		log.Debug("network analyzed",
			"network", g.Name, "routers", g.Routers, "kind", g.Kind,
			"instances", len(model.Instances), "duration", d)
		return na, nil
	}
	runPool(ctx, parallelism, len(c.Networks), func(i int) {
		analyses[i], errs[i] = analyzeOne(c.Networks[i])
	})
	if err := ctx.Err(); err != nil {
		root.Fail(err)
		return nil, err
	}
	if failFast {
		if err := firstError(ctx, errs); err != nil {
			root.Fail(err)
			return nil, err
		}
	}

	ws := &Workspace{Corpus: c, byName: make(map[string]*NetworkAnalysis)}
	for i, na := range analyses {
		if errs[i] != nil {
			log.Warn("skipping network whose analysis failed",
				"network", c.Networks[i].Name, "error", errs[i])
			ws.SkippedNetworks = append(ws.SkippedNetworks, c.Networks[i].Name)
			continue
		}
		if na == nil { // pool drained early; only possible with a cancelled ctx
			continue
		}
		ws.Nets = append(ws.Nets, na)
		ws.byName[na.Gen.Name] = na
	}
	return ws, nil
}

// runPool distributes n index-addressed work items over a bounded worker
// pool (parallelism <= 0 means GOMAXPROCS; a pool of 1 runs inline).
// Work items must only touch their own index. A cancelled ctx drains the
// queue early; already running items finish.
func runPool(ctx context.Context, parallelism, n int, work func(i int)) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			work(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
}

// firstError returns ctx's error if it was cancelled, else the
// lowest-index error recorded by a pool run — the same error a
// sequential loop would have returned first.
func firstError(ctx context.Context, errs []error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ByName returns the analysis for a network.
func (ws *Workspace) ByName(name string) *NetworkAnalysis { return ws.byName[name] }

// Result is one reproduced experiment.
type Result struct {
	// ID is the paper artifact identifier: "T1", "F11", "S7", "A1", ...
	ID    string
	Title string
	// Body is the rendered table/figure text.
	Body string
	// Claims lists the shape properties checked, with pass/fail.
	Claims []Claim
}

// Claim is one checked property.
type Claim struct {
	Text string
	OK   bool
}

// OK reports whether all claims hold.
func (r Result) OK() bool {
	for _, c := range r.Claims {
		if !c.OK {
			return false
		}
	}
	return true
}

// String renders the result for the terminal.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	b.WriteString(r.Body)
	for _, c := range r.Claims {
		mark := "PASS"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %s\n", mark, c.Text)
	}
	return b.String()
}

// claim appends a checked property to the result.
func (r *Result) claim(ok bool, format string, args ...any) {
	r.Claims = append(r.Claims, Claim{Text: fmt.Sprintf(format, args...), OK: ok})
}

// drivers lists every experiment in paper order; All and AllParallel
// report results in exactly this order.
var drivers = []func(*Workspace) Result{
	Figure4,
	Figure5,
	Figure7,
	Figure8,
	Table1,
	Figure9,
	Figure10,
	Section5Net5,
	Figure11,
	Table2,
	Figure12,
	Section7Taxonomy,
	Table3,
	Section2Unnumbered,
	AnonymizationInvariance,
	AblationClosure,
	AblationNextHop,
	AblationJoinBits,
}

// All runs every experiment in paper order, one telemetry span each,
// using every available core.
func All(ws *Workspace) []Result {
	return AllParallel(context.Background(), ws, 0)
}

// AllParallel runs every experiment over a bounded worker pool
// (parallelism <= 0 means GOMAXPROCS). The experiments only read the
// workspace, so they are independent; results come back in paper order
// whatever the pool size. A cancelled ctx skips the experiments not yet
// started and returns only the completed prefix-in-order results.
func AllParallel(ctx context.Context, ws *Workspace, parallelism int) []Result {
	results := make([]Result, len(drivers))
	done := make([]bool, len(drivers))
	runPool(ctx, parallelism, len(drivers), func(i int) {
		results[i] = runTimed(ctx, drivers[i], ws)
		done[i] = true
	})
	out := make([]Result, 0, len(drivers))
	for i, r := range results {
		if done[i] {
			out = append(out, r)
		}
	}
	return out
}

// runTimed wraps one experiment driver in a span named after the
// experiment id and logs its verdict.
func runTimed(ctx context.Context, f func(*Workspace) Result, ws *Workspace) Result {
	_, sp := telemetry.StartSpan(ctx, "experiment")
	r := f(ws)
	sp.SetName("experiment:" + r.ID)
	if !r.OK() {
		sp.Fail(fmt.Errorf("experiment %s: %d claims failing", r.ID, failing(r)))
	}
	d := sp.End()
	telemetry.Logger().Info("experiment complete",
		"id", r.ID, "title", r.Title, "ok", r.OK(), "claims", len(r.Claims), "duration", d)
	return r
}

func failing(r Result) int {
	n := 0
	for _, c := range r.Claims {
		if !c.OK {
			n++
		}
	}
	return n
}
