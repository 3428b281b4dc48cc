// Package instance computes routing instances (paper Section 3.2): the sets
// of routing processes that share routing information directly. Instances
// are the transitive closure of same-protocol adjacency, with the closure
// stopping at edges between routing processes of different types and at
// EBGP adjacencies between BGP speakers with different AS numbers.
//
// The package also derives the routing instance graph (paper Figure 6):
// instances as vertices, with edges wherever route exchange occurs between
// different protocols or ASes — route redistribution inside routers, EBGP
// sessions, and connections to the external world.
package instance

import (
	"fmt"
	"sort"

	"routinglens/internal/devmodel"
	"routinglens/internal/procgraph"
)

// Instance is one routing instance: a maximal set of routing processes of
// the same protocol that are transitively adjacent.
type Instance struct {
	ID       int
	Protocol devmodel.Protocol
	// ASN is the AS number for BGP instances (0 for IGP instances).
	ASN uint32
	// Nodes are the process-RIB graph nodes belonging to the instance.
	Nodes []*procgraph.Node
	// Devices are the distinct routers participating, sorted by hostname.
	Devices []*devmodel.Device
	// ExternalPeers counts adjacencies to routers outside the corpus:
	// EBGP sessions to unknown addresses plus IGP coverage of
	// external-facing interfaces.
	ExternalPeers int
}

// Label renders a short human-readable name: "ospf 64 (x3)" or
// "BGP AS 12762".
func (in *Instance) Label() string {
	if in.Protocol == devmodel.ProtoBGP {
		return fmt.Sprintf("BGP AS %d", in.ASN)
	}
	if len(in.Nodes) > 0 && in.Nodes[0].Proc.ID != "" {
		return fmt.Sprintf("%s %s", in.Protocol, in.Nodes[0].Proc.ID)
	}
	return in.Protocol.String()
}

// Size returns the number of routers in the instance.
func (in *Instance) Size() int { return len(in.Devices) }

// IsStagingIGP reports whether the instance matches the paper's "staging
// IGP" pattern (Section 7.1): a traditional IGP instance with a single
// router inside the network but external peers — used by tier-2 ISPs to
// connect customers that do not run BGP.
func (in *Instance) IsStagingIGP() bool {
	return in.Protocol.IsIGP() && len(in.Devices) == 1 && in.ExternalPeers > 0
}

// EdgeKind classifies instance-graph edges.
type EdgeKind int

// Instance-graph edge kinds.
const (
	// EdgeRedistribution is route redistribution between two instances
	// inside some router.
	EdgeRedistribution EdgeKind = iota
	// EdgeEBGP is an EBGP session between two instances inside the corpus.
	EdgeEBGP
	// EdgeExternal connects an instance to the external world.
	EdgeExternal
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeRedistribution:
		return "redistribution"
	case EdgeEBGP:
		return "ebgp"
	case EdgeExternal:
		return "external"
	}
	return "?"
}

// Edge is a directed route-flow edge between instances. A nil From or To
// denotes the external world.
type Edge struct {
	From, To *Instance
	Kind     EdgeKind
	// Via lists the underlying process-graph edges aggregated into this
	// instance edge; policies annotating them describe the route exchange.
	Via []*procgraph.Edge
}

// Policies returns the distinct policy names (route-maps and
// distribute-list ACLs) annotating the aggregated edges.
func (e *Edge) Policies() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(s string) {
		if s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, pe := range e.Via {
		add(pe.RouteMap)
		for _, dl := range pe.DistributeLists {
			add(dl)
		}
	}
	sort.Strings(out)
	return out
}

// Model is the routing instance view of one network.
type Model struct {
	Graph     *procgraph.Graph
	Instances []*Instance
	Edges     []*Edge

	byNode map[*procgraph.Node]*Instance
	// Per-instance edge indexes, built once by Compute so concurrent
	// readers never write; the nil instance (external world) is indexed
	// separately.
	inIdx, outIdx map[*Instance][]*Edge
	extIn, extOut []*Edge
}

// Options tune instance computation; used for ablation benches.
type Options struct {
	// IgnoreASBoundary merges BGP processes across EBGP adjacencies as if
	// they shared an AS. The paper's closure rule stops at such edges; the
	// ablation shows the instance structure collapsing without the stop.
	IgnoreASBoundary bool
}

// Compute derives routing instances with default options.
func Compute(g *procgraph.Graph) *Model { return ComputeWith(g, Options{}) }

// ComputeWith derives routing instances with explicit options.
func ComputeWith(g *procgraph.Graph, opts Options) *Model {
	procs := g.ProcNodes()
	// Union-find over process nodes.
	parent := make(map[*procgraph.Node]*procgraph.Node, len(procs))
	for _, p := range procs {
		parent[p] = p
	}
	var find func(n *procgraph.Node) *procgraph.Node
	find = func(n *procgraph.Node) *procgraph.Node {
		if parent[n] != n {
			parent[n] = find(parent[n])
		}
		return parent[n]
	}
	union := func(a, b *procgraph.Node) { parent[find(a)] = find(b) }

	for _, e := range g.Edges {
		if e.Kind != procgraph.Adjacency {
			continue
		}
		if e.From.Kind != procgraph.ProcRIB || e.To.Kind != procgraph.ProcRIB {
			continue
		}
		// The closure stops at EBGP adjacencies between different ASes.
		if e.EBGP && !opts.IgnoreASBoundary {
			continue
		}
		union(e.From, e.To)
	}

	// Group nodes by root, deterministically ordered by the smallest node
	// ID in each group.
	groups := make(map[*procgraph.Node][]*procgraph.Node)
	for _, p := range procs {
		r := find(p)
		groups[r] = append(groups[r], p)
	}
	type keyed struct {
		key   string
		nodes []*procgraph.Node
	}
	var ks []keyed
	for _, nodes := range groups {
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID() < nodes[j].ID() })
		ks = append(ks, keyed{key: nodes[0].ID(), nodes: nodes})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })

	m := &Model{Graph: g, byNode: make(map[*procgraph.Node]*Instance)}
	for i, k := range ks {
		in := &Instance{ID: i + 1, Protocol: k.nodes[0].Proc.Protocol, Nodes: k.nodes}
		if in.Protocol == devmodel.ProtoBGP {
			in.ASN = k.nodes[0].Proc.ASN
		}
		devSeen := make(map[*devmodel.Device]bool)
		for _, n := range k.nodes {
			n.Instance = in.ID
			m.byNode[n] = in
			if !devSeen[n.Device] {
				devSeen[n.Device] = true
				in.Devices = append(in.Devices, n.Device)
			}
		}
		sort.Slice(in.Devices, func(a, b int) bool { return in.Devices[a].Hostname < in.Devices[b].Hostname })
		m.Instances = append(m.Instances, in)
	}

	m.countExternalPeers()
	m.buildEdges()
	m.buildIndex()
	return m
}

// countExternalPeers tallies, per instance, EBGP sessions to external nodes
// and IGP processes covering external-facing interfaces.
func (m *Model) countExternalPeers() {
	g := m.Graph
	extSeen := make(map[*Instance]map[string]bool)
	for _, e := range g.Edges {
		if e.Kind != procgraph.Adjacency {
			continue
		}
		if e.From.Kind == procgraph.External && e.To.Kind == procgraph.ProcRIB {
			in := m.byNode[e.To]
			if in == nil {
				continue
			}
			if extSeen[in] == nil {
				extSeen[in] = make(map[string]bool)
			}
			if !extSeen[in][e.From.ID()] {
				extSeen[in][e.From.ID()] = true
				in.ExternalPeers++
			}
		}
	}
	for _, in := range m.Instances {
		if !in.Protocol.IsIGP() {
			continue
		}
		for _, n := range in.Nodes {
			in.ExternalPeers += len(g.IGPExternalInterfaces(n.Proc))
		}
	}
}

// buildEdges aggregates process-graph edges into instance-graph edges.
func (m *Model) buildEdges() {
	type key struct {
		from, to *Instance
		kind     EdgeKind
	}
	agg := make(map[key]*Edge)
	add := func(from, to *Instance, kind EdgeKind, via *procgraph.Edge) {
		k := key{from, to, kind}
		e, ok := agg[k]
		if !ok {
			e = &Edge{From: from, To: to, Kind: kind}
			agg[k] = e
			m.Edges = append(m.Edges, e)
		}
		e.Via = append(e.Via, via)
	}

	for _, e := range m.Graph.Edges {
		switch e.Kind {
		case procgraph.Redistribution:
			if e.From.Kind == procgraph.ProcRIB && e.To.Kind == procgraph.ProcRIB {
				fi, ti := m.byNode[e.From], m.byNode[e.To]
				if fi != nil && ti != nil && fi != ti {
					add(fi, ti, EdgeRedistribution, e)
				}
			}
		case procgraph.Adjacency:
			switch {
			case e.From.Kind == procgraph.External && e.To.Kind == procgraph.ProcRIB:
				add(nil, m.byNode[e.To], EdgeExternal, e)
			case e.From.Kind == procgraph.ProcRIB && e.To.Kind == procgraph.External:
				add(m.byNode[e.From], nil, EdgeExternal, e)
			case e.EBGP && e.From.Kind == procgraph.ProcRIB && e.To.Kind == procgraph.ProcRIB:
				fi, ti := m.byNode[e.From], m.byNode[e.To]
				if fi != nil && ti != nil && fi != ti {
					add(fi, ti, EdgeEBGP, e)
				}
			}
		}
	}

	// IGP instances with external-facing coverage also connect to the
	// external world, even without an explicit session.
	for _, in := range m.Instances {
		if in.Protocol.IsIGP() && in.ExternalPeers > 0 {
			k := key{in, nil, EdgeExternal}
			if _, ok := agg[k]; !ok {
				e := &Edge{From: in, To: nil, Kind: EdgeExternal}
				agg[k] = e
				m.Edges = append(m.Edges, e)
			}
		}
	}

	sort.Slice(m.Edges, func(i, j int) bool { return edgeKey(m.Edges[i]) < edgeKey(m.Edges[j]) })
}

func edgeKey(e *Edge) string {
	f, t := 0, 0
	if e.From != nil {
		f = e.From.ID
	}
	if e.To != nil {
		t = e.To.ID
	}
	return fmt.Sprintf("%04d-%04d-%d", f, t, e.Kind)
}

// buildIndex constructs the per-instance edge indexes; the model is
// immutable after Compute.
func (m *Model) buildIndex() {
	m.inIdx = make(map[*Instance][]*Edge, len(m.Instances))
	m.outIdx = make(map[*Instance][]*Edge, len(m.Instances))
	for _, e := range m.Edges {
		if e.From == nil {
			m.extOut = append(m.extOut, e)
		} else {
			m.outIdx[e.From] = append(m.outIdx[e.From], e)
		}
		if e.To == nil {
			m.extIn = append(m.extIn, e)
		} else {
			m.inIdx[e.To] = append(m.inIdx[e.To], e)
		}
	}
}

// EdgesInto returns the edges whose destination is the instance (nil for
// the external world).
func (m *Model) EdgesInto(in *Instance) []*Edge {
	if in == nil {
		return m.extIn
	}
	return m.inIdx[in]
}

// EdgesFrom returns the edges whose source is the instance (nil for the
// external world).
func (m *Model) EdgesFrom(in *Instance) []*Edge {
	if in == nil {
		return m.extOut
	}
	return m.outIdx[in]
}

// Of returns the instance containing the process node.
func (m *Model) Of(n *procgraph.Node) *Instance { return m.byNode[n] }

// OfProcess returns the instance containing the routing process.
func (m *Model) OfProcess(p *devmodel.RoutingProcess) *Instance {
	return m.byNode[m.Graph.ProcNode(p)]
}

// InstancesOf returns instances of the given protocol, in ID order.
func (m *Model) InstancesOf(proto devmodel.Protocol) []*Instance {
	var out []*Instance
	for _, in := range m.Instances {
		if in.Protocol == proto {
			out = append(out, in)
		}
	}
	return out
}

// BGPASNs returns the distinct AS numbers of BGP instances inside the
// network, sorted ascending.
func (m *Model) BGPASNs() []uint32 {
	seen := make(map[uint32]bool)
	var out []uint32
	for _, in := range m.Instances {
		if in.Protocol == devmodel.ProtoBGP && !seen[in.ASN] {
			seen[in.ASN] = true
			out = append(out, in.ASN)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExternalASNs returns the distinct AS numbers of external peers, sorted.
func (m *Model) ExternalASNs() []uint32 {
	seen := make(map[uint32]bool)
	var out []uint32
	for _, n := range m.Graph.ExternalNodes() {
		if n.ExtAS != 0 && !seen[n.ExtAS] {
			seen[n.ExtAS] = true
			out = append(out, n.ExtAS)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CutRouters returns the routers that would have to fail to separate
// instances a and b: the devices hosting processes of both instances, or
// hosting a redistribution path between them. This answers the paper's
// Section 5.1 question ("how many routers need to fail before instance 1 is
// partitioned from instance 2?") for directly-bridged instances.
func (m *Model) CutRouters(a, b *Instance) []*devmodel.Device {
	seen := make(map[*devmodel.Device]bool)
	var out []*devmodel.Device
	for _, e := range m.Edges {
		if e.Kind == EdgeExternal {
			continue
		}
		if (e.From == a && e.To == b) || (e.From == b && e.To == a) {
			for _, pe := range e.Via {
				d := pe.To.Device
				if d != nil && !seen[d] {
					seen[d] = true
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hostname < out[j].Hostname })
	return out
}
