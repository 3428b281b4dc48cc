// Package whatif implements the "what if" survivability analysis the paper
// describes under Network Engineering (Section 8.1): evaluate the
// robustness of a routing design to equipment failures and planned
// maintenance — which single router or link failure would partition a
// routing instance, and which maintenance groupings are unsafe because
// several routers hold static routes to the same destination.
//
// The analysis is purely structural: it works on the routing instance
// model, finding articulation routers and bridge adjacencies within each
// instance's adjacency graph, and cut routers between instances that
// exchange routes only through redistribution.
package whatif

import (
	"fmt"
	"sort"

	"routinglens/internal/devmodel"
	"routinglens/internal/instance"
	"routinglens/internal/netaddr"
	"routinglens/internal/procgraph"
)

// RouterFailure reports that losing one router would split a routing
// instance into disconnected pieces.
type RouterFailure struct {
	Instance *instance.Instance
	Router   *devmodel.Device
	// Pieces is the number of connected components the instance's
	// remaining routers fall into (>= 2).
	Pieces int
}

// LinkFailure reports that losing one adjacency (link) would split a
// routing instance.
type LinkFailure struct {
	Instance *instance.Instance
	// A and B are the endpoints of the critical adjacency.
	A, B *devmodel.Device
	// Link is the shared subnet of the adjacency (zero for BGP sessions).
	Link netaddr.Prefix
}

// BridgeFailure reports that a set of routers is the only bridge between
// two routing instances: if all of them fail, the instances stop
// exchanging routes.
type BridgeFailure struct {
	From, To *instance.Instance
	Routers  []*devmodel.Device
}

// StaticRisk reports a destination prefix that several routers reach only
// via static routes: taking those routers down together in one maintenance
// window silently blackholes the destination.
type StaticRisk struct {
	Prefix  netaddr.Prefix
	Routers []*devmodel.Device
}

// Analysis is the survivability report for one network.
type Analysis struct {
	RouterFailures []RouterFailure
	LinkFailures   []LinkFailure
	Bridges        []BridgeFailure
	StaticRisks    []StaticRisk
}

// Analyze computes the survivability report from the instance model.
func Analyze(m *instance.Model) *Analysis {
	a := &Analysis{}
	edges := adjacencyEdges(m)
	for _, in := range m.Instances {
		if in.Size() < 2 {
			continue
		}
		g := adjacencyOf(in, edges[in])
		a.RouterFailures = append(a.RouterFailures, articulations(in, g)...)
		a.LinkFailures = append(a.LinkFailures, bridges(in, g)...)
	}
	a.Bridges = instanceBridges(m)
	a.StaticRisks = staticRisks(m.Graph.Network)
	sortAnalysis(a)
	return a
}

// Expansion tells AnalyzeExpanded how to translate a reduced
// (quotient) model's answers back to the full network. internal/compress
// provides all three hooks.
type Expansion struct {
	// FullNetwork is the uncompressed device set; static-route risks are
	// computed directly on it.
	FullNetwork *devmodel.Network
	// FullInstance maps a reduced-model instance to its full-model
	// counterpart (the quotient verified this correspondence is 1:1).
	FullInstance func(*instance.Instance) *instance.Instance
	// Members expands a class representative to the devices it stands
	// for (and any other device to itself).
	Members func(*devmodel.Device) []*devmodel.Device
}

// AnalyzeExpanded computes the survivability report for the full network
// from its quotient: the graph algorithms run on the reduced instance
// model m, and the answers are translated through ex.
//
// Soundness rests on the quotient's construction. Each multi-member
// class is a clique inside every instance it belongs to, with all
// members sharing the representative's external neighborhood, so the
// full instance graph is the reduced one with some vertices blown up
// into cliques. Blown-up vertices can never be articulation points or
// bridge endpoints (their twins keep every neighborhood connected), so
// those findings are dropped rather than expanded; findings about
// singleton devices have identical articulation/bridge status and piece
// counts in both graphs. Redistribution bridge router sets expand
// member-wise because twins replicate the representative's
// redistributions exactly.
func AnalyzeExpanded(m *instance.Model, ex Expansion) *Analysis {
	a := &Analysis{}
	multi := func(d *devmodel.Device) bool { return len(ex.Members(d)) > 1 }
	edges := adjacencyEdges(m)
	for _, in := range m.Instances {
		if in.Size() < 2 {
			continue
		}
		g := adjacencyOf(in, edges[in])
		fi := ex.FullInstance(in)
		for _, rf := range articulations(in, g) {
			if multi(rf.Router) {
				continue
			}
			rf.Instance = fi
			a.RouterFailures = append(a.RouterFailures, rf)
		}
		for _, lf := range bridges(in, g) {
			if multi(lf.A) || multi(lf.B) {
				continue
			}
			lf.Instance = fi
			a.LinkFailures = append(a.LinkFailures, lf)
		}
	}
	for _, b := range instanceBridges(m) {
		var routers []*devmodel.Device
		for _, r := range b.Routers {
			routers = append(routers, ex.Members(r)...)
		}
		sort.Slice(routers, func(i, j int) bool { return routers[i].Hostname < routers[j].Hostname })
		a.Bridges = append(a.Bridges, BridgeFailure{
			From:    ex.FullInstance(b.From),
			To:      ex.FullInstance(b.To),
			Routers: routers,
		})
	}
	a.StaticRisks = staticRisks(ex.FullNetwork)
	sortAnalysis(a)
	return a
}

// adjGraph is the per-instance router adjacency graph.
type adjGraph struct {
	nodes []*devmodel.Device
	index map[*devmodel.Device]int
	// edges[i] lists neighbor indices; links[i][j] is the shared subnet of
	// the j-th neighbor entry.
	edges [][]int
	links [][]netaddr.Prefix
}

// adjacencyEdges buckets the process graph's adjacency edges by the
// instance holding both endpoints, in one pass over the edges and in
// their graph order. An edge between two instances, or touching a node
// outside every instance, is in no bucket.
func adjacencyEdges(m *instance.Model) map[*instance.Instance][]*procgraph.Edge {
	buckets := make(map[*instance.Instance][]*procgraph.Edge)
	for _, e := range m.Graph.Edges {
		if e.Kind != procgraph.Adjacency {
			continue
		}
		if in := m.Of(e.From); in != nil && in == m.Of(e.To) {
			buckets[in] = append(buckets[in], e)
		}
	}
	return buckets
}

// adjacencyOf builds the device-level adjacency graph of one instance from
// its bucket of adjacency edges (adjacencyEdges).
func adjacencyOf(in *instance.Instance, edges []*procgraph.Edge) *adjGraph {
	ag := &adjGraph{index: make(map[*devmodel.Device]int)}
	for _, n := range in.Nodes {
		if _, ok := ag.index[n.Device]; !ok {
			ag.index[n.Device] = len(ag.nodes)
			ag.nodes = append(ag.nodes, n.Device)
		}
	}
	ag.edges = make([][]int, len(ag.nodes))
	ag.links = make([][]netaddr.Prefix, len(ag.nodes))
	// The process graph stores each adjacency as a directed pair; dedupe
	// the pair but keep genuinely parallel links (distinct subnets) so
	// they are not misreported as bridges.
	type edgeKey struct {
		i, j int
		link netaddr.Prefix
	}
	seen := make(map[edgeKey]bool)
	for _, e := range edges {
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

// articulations finds routers whose removal disconnects the instance,
// using the classic DFS low-link algorithm, and counts the resulting
// pieces.
func articulations(in *instance.Instance, g *adjGraph) []RouterFailure {
	n := len(g.nodes)
	if n < 3 {
		return nil
	}
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	childSplits := make([]int, n) // subtrees that cannot reach above v
	for i := range parent {
		parent[i] = -1
		disc[i] = -1
	}
	timer := 0
	isRoot := make([]bool, n)
	rootChildren := make([]int, n)

	// Iterative DFS to keep large instances (445 routers) safe from deep
	// recursion limits.
	type frame struct {
		v, idx int
	}
	for start := 0; start < n; start++ {
		if disc[start] != -1 {
			continue
		}
		isRoot[start] = true
		stack := []frame{{start, 0}}
		disc[start] = timer
		low[start] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			if f.idx < len(g.edges[v]) {
				to := g.edges[v][f.idx]
				f.idx++
				if to == parent[v] {
					continue
				}
				if disc[to] != -1 {
					if disc[to] < low[v] {
						low[v] = disc[to]
					}
					continue
				}
				parent[to] = v
				if v == start {
					rootChildren[start]++
				}
				disc[to] = timer
				low[to] = timer
				timer++
				stack = append(stack, frame{to, 0})
				continue
			}
			stack = stack[:len(stack)-1]
			p := parent[v]
			if p != -1 {
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] >= disc[p] && !isRoot[p] {
					childSplits[p]++
				}
			}
		}
	}

	var out []RouterFailure
	for v := 0; v < n; v++ {
		pieces := 0
		switch {
		case isRoot[v] && rootChildren[v] > 1:
			pieces = rootChildren[v]
		case !isRoot[v] && childSplits[v] > 0:
			pieces = childSplits[v] + 1
		}
		if pieces >= 2 {
			out = append(out, RouterFailure{Instance: in, Router: g.nodes[v], Pieces: pieces})
		}
	}
	return out
}

// bridges finds adjacencies whose loss disconnects the instance (bridge
// edges of the adjacency graph).
func bridges(in *instance.Instance, g *adjGraph) []LinkFailure {
	n := len(g.nodes)
	if n < 2 {
		return nil
	}
	// Count parallel edges: an edge is only a bridge if it is the sole
	// adjacency between the pair.
	multi := make(map[[2]int]int)
	for i := range g.edges {
		for _, j := range g.edges[i] {
			if i < j {
				multi[[2]int{i, j}]++
			}
		}
	}

	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0
	var out []LinkFailure

	type frame struct {
		v, idx int
		// skippedParent tracks whether one edge back to the parent has
		// already been treated as the tree edge (parallel edges to the
		// parent then count as back edges).
		skippedParent bool
	}
	for start := 0; start < n; start++ {
		if disc[start] != -1 {
			continue
		}
		stack := []frame{{v: start}}
		disc[start] = timer
		low[start] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			if f.idx < len(g.edges[v]) {
				k := f.idx
				to := g.edges[v][k]
				f.idx++
				if to == parent[v] && !f.skippedParent {
					f.skippedParent = true
					continue
				}
				if disc[to] != -1 {
					if disc[to] < low[v] {
						low[v] = disc[to]
					}
					continue
				}
				parent[to] = v
				disc[to] = timer
				low[to] = timer
				timer++
				stack = append(stack, frame{v: to})
				continue
			}
			stack = stack[:len(stack)-1]
			p := parent[v]
			if p != -1 {
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] > disc[p] {
					i, j := min(p, v), max(p, v)
					if multi[[2]int{i, j}] == 1 {
						link := linkBetween(g, p, v)
						out = append(out, LinkFailure{Instance: in, A: g.nodes[p], B: g.nodes[v], Link: link})
					}
				}
			}
		}
	}
	return out
}

func linkBetween(g *adjGraph, a, b int) netaddr.Prefix {
	for k, to := range g.edges[a] {
		if to == b {
			return g.links[a][k]
		}
	}
	return netaddr.Prefix{}
}

// instanceBridges reports, for every pair of instances that exchange
// routes via redistribution, the full set of routers performing the
// redistribution — the "how many routers need to fail before instance 1 is
// partitioned from instance 2" question of Section 5.1.
func instanceBridges(m *instance.Model) []BridgeFailure {
	type key struct{ a, b int }
	seen := make(map[key]bool)
	var out []BridgeFailure
	for _, e := range m.Edges {
		if e.Kind != instance.EdgeRedistribution || e.From == nil || e.To == nil {
			continue
		}
		a, b := e.From, e.To
		k := key{min(a.ID, b.ID), max(a.ID, b.ID)}
		if seen[k] {
			continue
		}
		seen[k] = true
		routers := m.CutRouters(a, b)
		if len(routers) > 0 {
			out = append(out, BridgeFailure{From: a, To: b, Routers: routers})
		}
	}
	return out
}

// staticRisks groups destinations that multiple routers reach via static
// routes: the paper's maintenance-scheduling concern.
func staticRisks(n *devmodel.Network) []StaticRisk {
	byPrefix := make(map[netaddr.Prefix][]*devmodel.Device)
	for _, d := range n.Devices {
		seen := make(map[netaddr.Prefix]bool)
		for _, sr := range d.Statics {
			if !seen[sr.Prefix] {
				seen[sr.Prefix] = true
				byPrefix[sr.Prefix] = append(byPrefix[sr.Prefix], d)
			}
		}
	}
	var out []StaticRisk
	for p, devs := range byPrefix {
		if len(devs) >= 2 {
			sort.Slice(devs, func(i, j int) bool { return devs[i].Hostname < devs[j].Hostname })
			out = append(out, StaticRisk{Prefix: p, Routers: devs})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Less(out[j].Prefix) })
	return out
}

func sortAnalysis(a *Analysis) {
	sort.Slice(a.RouterFailures, func(i, j int) bool {
		x, y := a.RouterFailures[i], a.RouterFailures[j]
		if x.Instance.ID != y.Instance.ID {
			return x.Instance.ID < y.Instance.ID
		}
		return x.Router.Hostname < y.Router.Hostname
	})
	sort.Slice(a.LinkFailures, func(i, j int) bool {
		x, y := a.LinkFailures[i], a.LinkFailures[j]
		if x.Instance.ID != y.Instance.ID {
			return x.Instance.ID < y.Instance.ID
		}
		if x.A.Hostname != y.A.Hostname {
			return x.A.Hostname < y.A.Hostname
		}
		return x.B.Hostname < y.B.Hostname
	})
	sort.Slice(a.Bridges, func(i, j int) bool {
		x, y := a.Bridges[i], a.Bridges[j]
		if x.From.ID != y.From.ID {
			return x.From.ID < y.From.ID
		}
		return x.To.ID < y.To.ID
	})
}

// Summary renders a short report.
func (a *Analysis) Summary() string {
	s := fmt.Sprintf("single-router failures partitioning an instance: %d\n", len(a.RouterFailures))
	for i, rf := range a.RouterFailures {
		if i >= 10 {
			s += fmt.Sprintf("  ... and %d more\n", len(a.RouterFailures)-i)
			break
		}
		s += fmt.Sprintf("  %s splits instance %d %s into %d pieces\n",
			rf.Router.Hostname, rf.Instance.ID, rf.Instance.Label(), rf.Pieces)
	}
	s += fmt.Sprintf("single-adjacency failures partitioning an instance: %d\n", len(a.LinkFailures))
	s += fmt.Sprintf("instance pairs joined by redistribution bridges: %d\n", len(a.Bridges))
	for i, b := range a.Bridges {
		if i >= 10 {
			s += fmt.Sprintf("  ... and %d more\n", len(a.Bridges)-i)
			break
		}
		s += fmt.Sprintf("  instances %d <-> %d bridged by %d router(s)\n", b.From.ID, b.To.ID, len(b.Routers))
	}
	s += fmt.Sprintf("destinations with redundant static routes (maintenance risk groups): %d\n", len(a.StaticRisks))
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
