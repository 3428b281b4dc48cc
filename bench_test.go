// Benchmarks: one per table and figure of the paper's evaluation (run the
// corresponding experiment end to end on the prepared corpus), plus
// micro-benchmarks of the pipeline stages. Run with:
//
//	go test -bench=. -benchmem
//
// The workspace (corpus generation + full analysis of all 31 networks) is
// built once and shared; per-iteration work is the experiment itself.
package routinglens

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"routinglens/internal/addrspace"
	"routinglens/internal/anonymize"
	"routinglens/internal/ciscoparse"
	"routinglens/internal/core"
	"routinglens/internal/devmodel"
	"routinglens/internal/experiments"
	"routinglens/internal/instance"
	"routinglens/internal/net15"
	"routinglens/internal/netaddr"
	"routinglens/internal/netgen"
	"routinglens/internal/paperexample"
	"routinglens/internal/pathway"
	"routinglens/internal/procgraph"
	"routinglens/internal/reach"
	"routinglens/internal/simroute"
	"routinglens/internal/telemetry"
	"routinglens/internal/topology"
	"routinglens/internal/trace"
)

var (
	benchOnce sync.Once
	benchWS   *experiments.Workspace
	benchErr  error
)

func workspace(b *testing.B) *experiments.Workspace {
	b.Helper()
	benchOnce.Do(func() { benchWS, benchErr = experiments.BuildWorkspace(experiments.DefaultSeed) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWS
}

func runExperiment(b *testing.B, f func(*experiments.Workspace) experiments.Result) {
	b.Helper()
	ws := workspace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := f(ws)
		if !r.OK() {
			b.Fatalf("%s failed: %+v", r.ID, r.Claims)
		}
	}
}

// --- one benchmark per paper table/figure ---

func BenchmarkTable1ProtocolRoles(b *testing.B) { runExperiment(b, experiments.Table1) }
func BenchmarkTable2Net15Policies(b *testing.B) { runExperiment(b, experiments.Table2) }
func BenchmarkTable3InterfaceMix(b *testing.B)  { runExperiment(b, experiments.Table3) }
func BenchmarkFigure4ConfigSizes(b *testing.B)  { runExperiment(b, experiments.Figure4) }
func BenchmarkFigure5ProcessGraph(b *testing.B) { runExperiment(b, experiments.Figure5) }
func BenchmarkFigure7Pathways(b *testing.B)     { runExperiment(b, experiments.Figure7) }
func BenchmarkFigure8SizeDistribution(b *testing.B) {
	runExperiment(b, experiments.Figure8)
}
func BenchmarkFigure9Net5Instances(b *testing.B) { runExperiment(b, experiments.Figure9) }
func BenchmarkFigure10Net5Pathway(b *testing.B)  { runExperiment(b, experiments.Figure10) }
func BenchmarkFigure11FilterCDF(b *testing.B)    { runExperiment(b, experiments.Figure11) }
func BenchmarkFigure12Net15Reachability(b *testing.B) {
	runExperiment(b, experiments.Figure12)
}
func BenchmarkSection2Unnumbered(b *testing.B) { runExperiment(b, experiments.Section2Unnumbered) }
func BenchmarkSection5Net5Structure(b *testing.B) {
	runExperiment(b, experiments.Section5Net5)
}
func BenchmarkSection7Taxonomy(b *testing.B) { runExperiment(b, experiments.Section7Taxonomy) }
func BenchmarkAnonymizeRoundTrip(b *testing.B) {
	runExperiment(b, experiments.AnonymizationInvariance)
}

// --- ablation benchmarks (DESIGN.md Section 5) ---

func BenchmarkAblationClosure(b *testing.B)  { runExperiment(b, experiments.AblationClosure) }
func BenchmarkAblationNextHop(b *testing.B)  { runExperiment(b, experiments.AblationNextHop) }
func BenchmarkAblationJoinBits(b *testing.B) { runExperiment(b, experiments.AblationJoinBits) }

// --- pipeline-stage micro-benchmarks ---

// BenchmarkAnalyzeNet5 measures the instrumented extraction pipeline
// (core.Analyze) end to end on the 881-router network: topology,
// process graph, instances, address space, filters, classification.
func BenchmarkAnalyzeNet5(b *testing.B) {
	na := workspace(b).ByName("net5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.Analyze(na.Net)
		if len(d.Instances.Instances) == 0 {
			b.Fatal("no instances")
		}
	}
}

// BenchmarkParseConfig measures single-configuration parse throughput.
func BenchmarkParseConfig(b *testing.B) {
	cfg := paperexample.Configs()["r2"]
	b.SetBytes(int64(len(cfg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ciscoparse.Parse("r2", strings.NewReader(cfg)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseNet5 measures parsing the full 881-router network.
func BenchmarkParseNet5(b *testing.B) {
	g := workspace(b).Corpus.ByName("net5")
	var bytes int64
	for _, cfg := range g.Configs {
		bytes += int64(len(cfg))
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyNet5 measures link inference on 881 routers.
func BenchmarkTopologyNet5(b *testing.B) {
	na := workspace(b).ByName("net5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topology.Build(na.Net)
	}
}

// BenchmarkProcGraphNet5 measures routing-process-graph construction.
func BenchmarkProcGraphNet5(b *testing.B) {
	na := workspace(b).ByName("net5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procgraph.Build(na.Net, na.Top)
	}
}

// BenchmarkInstancesNet5 measures routing-instance computation (union-find
// closure plus instance-graph construction).
func BenchmarkInstancesNet5(b *testing.B) {
	na := workspace(b).ByName("net5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instance.Compute(na.Graph)
	}
}

// BenchmarkPathwayNet5 measures route-pathway BFS on the net5 model.
func BenchmarkPathwayNet5(b *testing.B) {
	na := workspace(b).ByName("net5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pathway.Compute(na.Model, "r50"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddrspaceNet5 measures address-block discovery over net5.
func BenchmarkAddrspaceNet5(b *testing.B) {
	na := workspace(b).ByName("net5")
	subnets := addrspace.CollectSubnets(na.Net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addrspace.Discover(subnets, addrspace.Options{})
	}
}

// BenchmarkSimrouteNet15 measures the control-plane simulation to fixpoint.
func BenchmarkSimrouteNet15(b *testing.B) {
	na := workspace(b).ByName("net15")
	ext := net15.ExternalRoutes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := simroute.New(na.Graph, ext)
		s.Run()
	}
}

// BenchmarkSimrouteNet5 measures what an rlensd cold start of the
// 881-router network pays in the simulator: the fixpoint with a default
// route injected at all 18 peers, then the two network-wide reach views.
// A snapshot restart and a reload whose edit changes a flow policy pay
// the same; a one-file edit pays BenchmarkSimrouteNet5Edit's. With
// nothing to reuse, Run shards the prefixes across GOMAXPROCS, so
// -cpu 1,2 prints the one-core and the sharded time.
func BenchmarkSimrouteNet5(b *testing.B) {
	na := workspace(b).ByName("net5")
	space := addrspace.Discover(addrspace.CollectSubnets(na.Net), addrspace.Options{})
	ext := []simroute.ExternalRoute{{Prefix: mustPrefix("0.0.0.0/0")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := simroute.New(na.Graph, ext)
		s.Run()
		an := reach.AnalyzeReduced(na.Model, s, space)
		an.HasDefaultRoute()
		an.AdmittedExternalRoutes()
	}
}

// BenchmarkSimrouteNet5Edit measures what the simulator costs an rlensd
// reload of net5 after a one-line edit: a fresh /32 static route on one
// router, then New, Reuse from the unedited generation's Sim, Run and
// the two network-wide reach views. BenchmarkSimrouteNet5 is the same
// work with nothing to reuse, as on a cold start.
func BenchmarkSimrouteNet5Edit(b *testing.B) {
	ws := workspace(b)
	na := ws.ByName("net5")
	space := addrspace.Discover(addrspace.CollectSubnets(na.Net), addrspace.Options{})
	ext := []simroute.ExternalRoute{{Prefix: mustPrefix("0.0.0.0/0")}}
	prev := simroute.New(na.Graph, ext)
	prev.Run()

	edited := *na.Net
	edited.Devices = append([]*devmodel.Device(nil), na.Net.Devices...)
	i := len(edited.Devices) / 2
	host := edited.Devices[i].Hostname
	res, err := ciscoparse.Parse(host+".cfg", strings.NewReader(
		ws.Corpus.ByName("net5").Configs[host]+"ip route 198.18.0.1 255.255.255.255 Null0\n"))
	if err != nil {
		b.Fatal(err)
	}
	edited.Devices[i] = res.Device
	model := instance.Compute(procgraph.Build(&edited, topology.Build(&edited)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := simroute.New(model.Graph, ext)
		if moved := s.Reuse(prev); moved != 1 {
			b.Fatalf("Reuse left %d prefixes to simulate, want the new /32 alone", moved)
		}
		s.Run()
		an := reach.AnalyzeReduced(model, s, space)
		an.HasDefaultRoute()
		an.AdmittedExternalRoutes()
	}
}

// BenchmarkAnalyzeDirNet5Edit measures what the analysis costs an rlensd
// reload of net5 after a one-line edit: AnalyzeDirResult, given the
// unedited Result, reads and keys all 881 files, parses the edited one
// and runs the six stages. The read and parse pools are sized by
// GOMAXPROCS, so -cpu 1,2 prints the one-core and the pooled time.
func BenchmarkAnalyzeDirNet5Edit(b *testing.B) {
	g := workspace(b).Corpus.ByName("net5")
	dir := b.TempDir()
	hosts := make([]string, 0, len(g.Configs))
	for host, cfg := range g.Configs {
		if err := os.WriteFile(filepath.Join(dir, host+".cfg"), []byte(cfg), 0o644); err != nil {
			b.Fatal(err)
		}
		hosts = append(hosts, host)
	}
	sort.Strings(hosts)
	an := core.NewAnalyzer()
	prev, err := an.AnalyzeDirResult(context.Background(), g.Name, dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	edited := hosts[len(hosts)/2]
	text := g.Configs[edited] + "ip route 198.18.0.1 255.255.255.255 Null0\n"
	if err := os.WriteFile(filepath.Join(dir, edited+".cfg"), []byte(text), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := an.AnalyzeDirResult(context.Background(), g.Name, dir, prev)
		if err != nil {
			b.Fatal(err)
		}
		if res.FilesParsed != 1 {
			b.Fatalf("the edit reload parsed %d files, want 1", res.FilesParsed)
		}
	}
}

// BenchmarkFullReach is the 10k-router scale check of the reach path
// rlensd serves: the cold analysis (a default route injected at every
// external peer, then the two network-wide views) over the full
// instance graph of a provider-tier network. It is slow; run it alone:
//
//	go test -run '^$' -bench FullReach -benchtime 3x .
func BenchmarkFullReach(b *testing.B) {
	g := netgen.GenerateProvider(2004, 10000)
	design, _, err := core.NewAnalyzer().AnalyzeConfigs(context.Background(), g.Name, g.Configs)
	if err != nil {
		b.Fatal(err)
	}
	ext := []simroute.ExternalRoute{{Prefix: netaddr.PrefixFrom(0, 0)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := reach.Analyze(design.Instances, design.AddressSpace, ext, nil)
		a.HasDefaultRoute()
		a.AdmittedExternalRoutes()
	}
}

// BenchmarkReachNet15 measures the full reachability analysis.
func BenchmarkReachNet15(b *testing.B) {
	na := workspace(b).ByName("net15")
	space := addrspace.Discover(addrspace.CollectSubnets(na.Net), addrspace.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := reach.Analyze(na.Model, space, net15.ExternalRoutes(), nil)
		if an.HasDefaultRoute() {
			b.Fatal("unexpected default route")
		}
	}
}

// BenchmarkAnonymizeConfig measures anonymization throughput.
func BenchmarkAnonymizeConfig(b *testing.B) {
	cfg := paperexample.Configs()["r2"]
	a := anonymize.New("bench")
	b.SetBytes(int64(len(cfg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := a.AnonymizeConfig(strings.NewReader(cfg), &sb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateCorpus measures full corpus generation (31 networks).
func BenchmarkGenerateCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := netgen.GenerateCorpus(int64(i))
		if len(c.Networks) != 31 {
			b.Fatal("bad corpus")
		}
	}
}

// BenchmarkFullPipelineCorpus measures the end-to-end cost the paper's
// methodology implies at corpus scale: parse all 31 networks (~9k routers)
// and extract every design abstraction.
func BenchmarkFullPipelineCorpus(b *testing.B) {
	c := netgen.GenerateCorpus(experiments.DefaultSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range c.Networks {
			n, err := g.Build()
			if err != nil {
				b.Fatal(err)
			}
			top := topology.Build(n)
			instance.Compute(procgraph.Build(n, top))
		}
	}
}

// --- telemetry overhead micro-benchmarks ---

// BenchmarkSpanStartEnd measures the cost one instrumented stage adds:
// a StartSpan/End pair including the histogram observation.
func BenchmarkSpanStartEnd(b *testing.B) {
	ctx := telemetry.WithRegistry(
		telemetry.WithCollector(context.Background(), telemetry.NewCollector()),
		telemetry.NewRegistry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, s := telemetry.StartSpan(ctx, "bench")
		s.End()
	}
}

// BenchmarkCounterInc measures a counter increment including the
// by-name registry lookup, the pattern the parse hot loop uses.
func BenchmarkCounterInc(b *testing.B) {
	r := telemetry.NewRegistry()
	lbl := telemetry.L("dialect", "ios")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("bench_total", lbl).Inc()
	}
}

// BenchmarkHistogramObserve measures one latency observation.
func BenchmarkHistogramObserve(b *testing.B) {
	r := telemetry.NewRegistry()
	h := r.Histogram("bench_seconds", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.017)
	}
}

// net5Sim caches the completed net5 simulation: benchmark functions are
// re-invoked for every calibration round, and the simulation setup must
// not be re-paid each time.
var (
	net5SimOnce sync.Once
	net5Sim     *simroute.Sim
)

func net5Simulation(b *testing.B) *simroute.Sim {
	b.Helper()
	na := workspace(b).ByName("net5")
	net5SimOnce.Do(func() {
		net5Sim = simroute.New(na.Graph, []simroute.ExternalRoute{
			{Prefix: mustPrefix("0.0.0.0/0")},
		})
		net5Sim.Run()
	})
	return net5Sim
}

// BenchmarkTraceNet5 measures static traceroute reconstruction across the
// 881-router network (simulation cached; the trace itself is measured).
func BenchmarkTraceNet5(b *testing.B) {
	tr := trace.New(net5Simulation(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := tr.Trace("k100", mustPrefix("0.0.0.0/0").Addr()+8)
		if err != nil {
			b.Fatal(err)
		}
		if len(p.Hops) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func mustPrefix(s string) netaddr.Prefix {
	p, err := netaddr.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}
