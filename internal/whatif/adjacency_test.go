package whatif

import (
	"reflect"
	"sort"
	"testing"

	"routinglens/internal/devmodel"
	"routinglens/internal/instance"
	"routinglens/internal/netaddr"
	"routinglens/internal/netgen"
	"routinglens/internal/paperexample"
	"routinglens/internal/procgraph"
	"routinglens/internal/topology"
)

// adjacencyByScan is the reference adjacency builder: it scans every
// process-graph edge for each instance, keeping the edges whose two
// endpoints are both members. Analyze buckets the edges in one pass
// instead; TestAdjacencyBucketsMatchScan holds it to this.
func adjacencyByScan(g *procgraph.Graph, in *instance.Instance) *adjGraph {
	ag := &adjGraph{index: make(map[*devmodel.Device]int)}
	member := make(map[*procgraph.Node]bool, len(in.Nodes))
	for _, n := range in.Nodes {
		member[n] = true
		if _, ok := ag.index[n.Device]; !ok {
			ag.index[n.Device] = len(ag.nodes)
			ag.nodes = append(ag.nodes, n.Device)
		}
	}
	ag.edges = make([][]int, len(ag.nodes))
	ag.links = make([][]netaddr.Prefix, len(ag.nodes))
	type edgeKey struct {
		i, j int
		link netaddr.Prefix
	}
	seen := make(map[edgeKey]bool)
	for _, e := range g.Edges {
		if e.Kind != procgraph.Adjacency || !member[e.From] || !member[e.To] {
			continue
		}
		i, j := ag.index[e.From.Device], ag.index[e.To.Device]
		if i == j {
			continue
		}
		key := edgeKey{min(i, j), max(i, j), e.Link}
		if seen[key] {
			continue
		}
		seen[key] = true
		ag.edges[i] = append(ag.edges[i], j)
		ag.links[i] = append(ag.links[i], e.Link)
		ag.edges[j] = append(ag.edges[j], i)
		ag.links[j] = append(ag.links[j], e.Link)
	}
	return ag
}

// analyzeByScan is Analyze over the reference adjacency builder.
func analyzeByScan(m *instance.Model) *Analysis {
	a := &Analysis{}
	for _, in := range m.Instances {
		if in.Size() < 2 {
			continue
		}
		g := adjacencyByScan(m.Graph, in)
		a.RouterFailures = append(a.RouterFailures, articulations(in, g)...)
		a.LinkFailures = append(a.LinkFailures, bridges(in, g)...)
	}
	a.Bridges = instanceBridges(m)
	a.StaticRisks = staticRisks(m.Graph.Network)
	sortAnalysis(a)
	return a
}

// generatedModel builds the instance model of one generated network.
func generatedModel(tb testing.TB, g *netgen.Generated) *instance.Model {
	tb.Helper()
	n, err := g.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return instance.Compute(procgraph.Build(n, topology.Build(n)))
}

// TestAdjacencyBucketsMatchScan: bucketing the adjacency edges in one
// pass yields the same adjacency graph for every instance — nodes,
// neighbour order and links — and the same Analysis (all four lists, in
// the same order) as scanning every edge per instance, on net5, the
// smallest network of every netgen kind, a 600-router provider and the
// paper's Figure 1 network. On the netgen networks an EBGP edge put in
// the wrong instance's bucket merges into an existing iBGP edge; on
// Figure 1 it reorders a router's neighbours, which the graph check sees.
func TestAdjacencyBucketsMatchScan(t *testing.T) {
	check := func(name string, m *instance.Model) {
		edges := adjacencyEdges(m)
		for _, in := range m.Instances {
			if got, want := adjacencyOf(in, edges[in]), adjacencyByScan(m.Graph, in); !reflect.DeepEqual(got, want) {
				t.Errorf("%s instance %d %s: bucketed adjacency graph differs from the per-instance scan",
					name, in.ID, in.Label())
			}
		}
		if got, want := Analyze(m), analyzeByScan(m); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bucketed analysis differs from the per-instance scan:\n%s\nvs\n%s",
				name, got.Summary(), want.Summary())
		}
	}
	corpus := netgen.GenerateCorpus(experimentsSeed)
	smallest := make(map[netgen.Kind]*netgen.Generated)
	for _, g := range corpus.Networks {
		if cur, ok := smallest[g.Kind]; !ok || g.Routers < cur.Routers {
			smallest[g.Kind] = g
		}
	}
	nets := []*netgen.Generated{corpus.ByName("net5"), netgen.GenerateProvider(1, 600)}
	for _, g := range smallest {
		nets = append(nets, g)
	}
	sort.Slice(nets[2:], func(i, j int) bool { return nets[2+i].Name < nets[2+j].Name })
	for _, g := range nets {
		check(g.Name, generatedModel(t, g))
	}
	paper, err := paperexample.Build()
	if err != nil {
		t.Fatal(err)
	}
	check("paper example", modelOf(t, paper))
}

// BenchmarkAnalyzeProvider times the full survivability analysis on the
// 10k-router provider tier, the first what-if query of every generation:
//
//	go test -run '^$' -bench AnalyzeProvider -benchtime 3x ./internal/whatif
func BenchmarkAnalyzeProvider(b *testing.B) {
	m := generatedModel(b, netgen.GenerateProvider(2004, 10000))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		Analyze(m)
	}
}
