package simroute_test

// This file keeps the simulator as it stood before prefixes and label
// sets were interned — map-of-*Route RIBs, a post-selection router table
// per device, provenance maps — as refSim, a test-only reference. Its
// fixpoint (New, Run, flowDelta and the policy evaluation) and its route
// selection are kept verbatim, round cap included; only SelectedAt and
// CanReach probe the router table by prefix length instead of scanning
// it, which finds the same entry. TestMatchesReference holds the
// production simulator to exactly the answers refSim gives, propagation
// order included: route-maps that match tags make the fixpoint depend on
// it.

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"routinglens/internal/devmodel"
	"routinglens/internal/net15"
	"routinglens/internal/netaddr"
	"routinglens/internal/netgen"
	"routinglens/internal/paperexample"
	"routinglens/internal/procgraph"
	"routinglens/internal/simroute"
	"routinglens/internal/topology"
)

// refLabels is a small set of string labels stored as a sorted slice.
// Routes carry at most a handful of tags and origins, and the fixpoint
// loop merges label sets once per (edge, route change) — millions of
// times at provider scale — where a short slice beats a map on both
// iteration and allocation. The zero value is the empty set.
type refLabels []string

// Has reports membership.
func (s refLabels) Has(v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// add inserts v in sorted position, reporting whether it was new.
func (s *refLabels) add(v string) bool {
	i := sort.SearchStrings(*s, v)
	if i < len(*s) && (*s)[i] == v {
		return false
	}
	*s = append(*s, "")
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = v
	return true
}

// refRoute is one routing-table entry in a RIB. Tags and origins accumulate
// monotonically as the same prefix is learned over multiple pathways.
type refRoute struct {
	Prefix netaddr.Prefix
	// Tags carries route tags applied by route-maps ("set tag"); IGPs that
	// transport tags (OSPF, EIGRP) propagate them.
	Tags refLabels
	// Origins records where the route entered the model: "connected",
	// "static", or "external:AS<n>".
	Origins refLabels
}

func newRefRoute(p netaddr.Prefix) *refRoute {
	return &refRoute{Prefix: p}
}

// HasOrigin reports whether the route carries the origin label.
func (r *refRoute) HasOrigin(o string) bool { return r.Origins.Has(o) }

// ExternalOrigin reports whether any origin is external.
func (r *refRoute) ExternalOrigin() bool {
	for _, o := range r.Origins {
		if len(o) > 9 && o[:9] == "external:" {
			return true
		}
	}
	return false
}

// refRIB is a monotone route set keyed by prefix. Every insertion or
// attribute change appends the affected route to log, so consumers (the
// fixpoint loop's edges) can process deltas instead of rescanning the
// whole RIB.
type refRIB struct {
	routes map[netaddr.Prefix]*refRoute
	log    []*refRoute
}

func newRefRIB() *refRIB { return &refRIB{routes: make(map[netaddr.Prefix]*refRoute)} }

// merge folds src (with optional extra tag) into the rib, reporting whether
// anything changed.
func (rb *refRIB) merge(src *refRoute, setTag string) bool {
	dst, ok := rb.routes[src.Prefix]
	if !ok {
		dst = newRefRoute(src.Prefix)
		rb.routes[src.Prefix] = dst
	}
	changed := !ok
	for _, t := range src.Tags {
		if dst.Tags.add(t) {
			changed = true
		}
	}
	if setTag != "" && dst.Tags.add(setTag) {
		changed = true
	}
	for _, o := range src.Origins {
		if dst.Origins.add(o) {
			changed = true
		}
	}
	if changed {
		rb.log = append(rb.log, dst)
	}
	return changed
}

func (rb *refRIB) addOrigin(p netaddr.Prefix, origin string) bool {
	r, ok := rb.routes[p]
	if !ok {
		r = newRefRoute(p)
		rb.routes[p] = r
	}
	if !r.Origins.add(origin) {
		return false
	}
	rb.log = append(rb.log, r)
	return true
}

// refSim is one simulation over a process graph.
type refSim struct {
	Graph *procgraph.Graph
	ribs  map[*procgraph.Node]*refRIB
	// routerRIB holds the post-selection table per device.
	routerRIB map[*devmodel.Device]map[netaddr.Prefix]refSelected
	// provenance records, per (node, prefix), the node the route was first
	// learned from — the edge source of the first merge that introduced
	// the prefix. Used by the trace package to reconstruct a plausible
	// forwarding path.
	provenance map[*procgraph.Node]map[netaddr.Prefix]*procgraph.Node
	// lengths lists, per device, the prefix lengths its router RIB
	// holds, longest first (for SelectedAt).
	lengths map[*devmodel.Device][]int
}

// refSelected is one router-RIB entry after route selection.
type refSelected struct {
	Route *refRoute
	// Proto is the winning source protocol.
	Proto devmodel.Protocol
	// Distance is the winning administrative distance.
	Distance int
}

// newRefSim prepares a simulation for the graph, injecting the given external
// routes at every external peer node whose AS matches (routes with AS 0 are
// injected at all external peers).
func newRefSim(g *procgraph.Graph, external []simroute.ExternalRoute) *refSim {
	s := &refSim{
		Graph:      g,
		ribs:       make(map[*procgraph.Node]*refRIB),
		routerRIB:  make(map[*devmodel.Device]map[netaddr.Prefix]refSelected),
		provenance: make(map[*procgraph.Node]map[netaddr.Prefix]*procgraph.Node),
	}
	for _, n := range g.Nodes {
		s.ribs[n] = newRefRIB()
	}
	s.originateLocal()
	s.injectExternal(external)
	return s
}

// originateLocal seeds local RIBs with connected subnets and static routes,
// and process RIBs with the connected subnets their network statements
// cover.
func (s *refSim) originateLocal() {
	for _, d := range s.Graph.Network.Devices {
		local := s.ribs[s.Graph.LocalNode(d)]
		for _, i := range d.Interfaces {
			if i.Shutdown {
				continue
			}
			for _, a := range i.Addrs {
				if p, ok := a.Prefix(); ok {
					local.addOrigin(p, "connected")
				}
			}
		}
		for _, sr := range d.Statics {
			local.addOrigin(sr.Prefix, "static")
		}
		for _, proc := range d.Processes {
			prib := s.ribs[s.Graph.ProcNode(proc)]
			for _, i := range d.Interfaces {
				if i.Shutdown {
					continue
				}
				for _, a := range i.Addrs {
					p, ok := a.Prefix()
					if !ok || !proc.CoversAddr(a.Addr) {
						continue
					}
					prib.addOrigin(p, "connected")
				}
			}
			// BGP additionally originates explicit network statements with
			// masks (announcements of internal blocks).
			if proc.Protocol == devmodel.ProtoBGP {
				for _, ns := range proc.Networks {
					if ns.HasMask {
						if p, err := netaddr.PrefixFromMask(ns.Addr, ns.Mask); err == nil {
							prib.addOrigin(p, "connected")
						}
					}
				}
			}
		}
	}
}

func (s *refSim) injectExternal(external []simroute.ExternalRoute) {
	for _, n := range s.Graph.ExternalNodes() {
		rb := s.ribs[n]
		for _, er := range external {
			if er.AS == 0 || er.AS == n.ExtAS {
				rb.addOrigin(er.Prefix, fmt.Sprintf("external:AS%d", n.ExtAS))
			}
		}
	}
}

// Run iterates route propagation to a fixpoint and then performs route
// selection into every router RIB. It returns the number of propagation
// rounds executed.
//
// Propagation is incremental: every RIB keeps an append-only log of route
// insertions and attribute changes, and each edge holds a cursor into its
// source's log, so a route is pushed across an edge once per change rather
// than once per round. On the 881-router case-study network this is the
// difference between seconds and minutes.
func (s *refSim) Run() int {
	// cursor[e] is how much of the source log edge e has consumed.
	cursor := make(map[*procgraph.Edge]int, len(s.Graph.Edges))
	rounds := 0
	for {
		rounds++
		changed := false
		for _, e := range s.Graph.Edges {
			if e.Kind != procgraph.Adjacency && e.Kind != procgraph.Redistribution {
				continue
			}
			src := s.ribs[e.From]
			from := cursor[e]
			if from == len(src.log) {
				continue
			}
			// Snapshot the log length: entries appended during this flow
			// belong to the next round.
			to := len(src.log)
			cursor[e] = to
			if s.flowDelta(e, src.log[from:to]) {
				changed = true
			}
		}
		if !changed || rounds > 10000 {
			break
		}
	}
	s.selectRoutes()
	return rounds
}

// flowDelta moves the given changed routes across one edge, applying the
// edge's policy annotations. It reports whether the destination RIB
// changed.
func (s *refSim) flowDelta(e *procgraph.Edge, delta []*refRoute) bool {
	dst := s.ribs[e.To]
	changed := false

	var dev *devmodel.Device
	if e.To.Device != nil {
		dev = e.To.Device
	} else if e.From.Device != nil {
		dev = e.From.Device
	}

	for _, r := range delta {
		ok, setTag := s.permitted(e, dev, r)
		if !ok {
			continue
		}
		_, knew := dst.routes[r.Prefix]
		if dst.merge(r, setTag) {
			changed = true
			if !knew {
				prov := s.provenance[e.To]
				if prov == nil {
					prov = make(map[netaddr.Prefix]*procgraph.Node)
					s.provenance[e.To] = prov
				}
				prov[r.Prefix] = e.From
			}
		}
	}
	return changed
}

// LearnedFrom returns the node from which the given node first learned the
// prefix, or nil when the node originated the route itself.
func (s *refSim) LearnedFrom(n *procgraph.Node, p netaddr.Prefix) *procgraph.Node {
	return s.provenance[n][p]
}

// SelectedAt returns the winning router-RIB entry covering addr at the
// device using longest-prefix match, with ok=false when no route covers
// the address. It probes the table at each prefix length the device
// holds, longest first, which finds the entry the original scan over
// the whole table found.
func (s *refSim) SelectedAt(d *devmodel.Device, addr netaddr.Addr) (refSelected, netaddr.Prefix, bool) {
	table := s.routerRIB[d]
	for _, bits := range s.lengths[d] {
		p := netaddr.PrefixFrom(addr, bits)
		if sel, ok := table[p]; ok {
			return sel, p, true
		}
	}
	return refSelected{}, netaddr.Prefix{}, false
}

// permitted evaluates the edge's policies against the route on device dev
// (whose ACLs and route-maps are in scope). It returns whether the route
// passes and any tag to set.
func (s *refSim) permitted(e *procgraph.Edge, dev *devmodel.Device, r *refRoute) (bool, string) {
	// Distribute lists: all listed ACLs must permit the prefix.
	for _, aclName := range e.DistributeLists {
		if dev == nil {
			continue
		}
		acl, ok := dev.AccessLists[aclName]
		if !ok {
			// Undefined ACL permits everything in IOS.
			continue
		}
		if !acl.PermitsPrefix(r.Prefix) {
			return false, ""
		}
	}
	if e.RouteMap != "" && dev != nil {
		rm, ok := dev.RouteMaps[e.RouteMap]
		if ok {
			return refEvalRouteMap(dev, rm, r)
		}
	}
	return true, ""
}

// refEvalRouteMap evaluates the route-map against the route: first matching
// entry decides; no match denies.
func refEvalRouteMap(dev *devmodel.Device, rm *devmodel.RouteMap, r *refRoute) (bool, string) {
	for _, ent := range rm.Entries {
		if !refEntryMatches(dev, ent, r) {
			continue
		}
		if ent.Action == devmodel.ActionDeny {
			return false, ""
		}
		return true, ent.SetTag
	}
	return false, ""
}

func refEntryMatches(dev *devmodel.Device, ent devmodel.RouteMapEntry, r *refRoute) bool {
	if len(ent.MatchACLs) == 0 && len(ent.MatchTags) == 0 && len(ent.MatchPrefixLists) == 0 {
		return true // match-all entry
	}
	for _, aclName := range ent.MatchACLs {
		if acl, ok := dev.AccessLists[aclName]; ok && acl.PermitsPrefix(r.Prefix) {
			return true
		}
	}
	for _, plName := range ent.MatchPrefixLists {
		if pl, ok := dev.PrefixLists[plName]; ok && pl.Permits(r.Prefix) {
			return true
		}
	}
	for _, tag := range ent.MatchTags {
		if r.Tags.Has(tag) {
			return true
		}
	}
	return false
}

// selectRoutes performs administrative-distance selection into each router
// RIB.
func (s *refSim) selectRoutes() {
	for _, d := range s.Graph.Network.Devices {
		table := make(map[netaddr.Prefix]refSelected)
		consider := func(r *refRoute, proto devmodel.Protocol, dist int) {
			cur, ok := table[r.Prefix]
			if !ok || dist < cur.Distance {
				table[r.Prefix] = refSelected{Route: r, Proto: proto, Distance: dist}
			}
		}
		for _, r := range s.ribs[s.Graph.LocalNode(d)].routes {
			proto := devmodel.ProtoConnected
			dist := 0
			if r.HasOrigin("static") && !r.HasOrigin("connected") {
				proto = devmodel.ProtoStatic
				dist = 1
			}
			consider(r, proto, dist)
		}
		for _, p := range d.Processes {
			dist := p.Protocol.AdminDistance()
			for _, r := range s.ribs[s.Graph.ProcNode(p)].routes {
				consider(r, p.Protocol, dist)
			}
		}
		s.routerRIB[d] = table
	}
	s.lengths = make(map[*devmodel.Device][]int)
	for d, table := range s.routerRIB {
		var held [33]bool
		for p := range table {
			held[p.Bits()] = true
		}
		for bits := 32; bits >= 0; bits-- {
			if held[bits] {
				s.lengths[d] = append(s.lengths[d], bits)
			}
		}
	}
}

// ProcRoutes returns the routes in a process RIB, sorted by prefix.
func (s *refSim) ProcRoutes(p *devmodel.RoutingProcess) []*refRoute {
	n := s.Graph.ProcNode(p)
	if n == nil {
		return nil
	}
	return refSortRoutes(s.ribs[n].routes)
}

// RouterRoutes returns the selected router-RIB entries of the device,
// sorted by prefix.
func (s *refSim) RouterRoutes(d *devmodel.Device) []refSelected {
	var out []refSelected
	for _, sel := range s.routerRIB[d] {
		out = append(out, sel)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Route.Prefix.Less(out[j].Route.Prefix) })
	return out
}

// CanReach reports whether the device's router RIB contains a route
// covering the address.
func (s *refSim) CanReach(d *devmodel.Device, a netaddr.Addr) bool {
	_, _, ok := s.SelectedAt(d, a)
	return ok
}

// HasRoute reports whether the device's router RIB contains exactly the
// prefix.
func (s *refSim) HasRoute(d *devmodel.Device, p netaddr.Prefix) bool {
	_, ok := s.routerRIB[d][p]
	return ok
}

// ExternalRoutesAt returns the prefixes with external origin present in the
// device's router RIB.
func (s *refSim) ExternalRoutesAt(d *devmodel.Device) []netaddr.Prefix {
	var out []netaddr.Prefix
	for p, sel := range s.routerRIB[d] {
		if sel.Route.ExternalOrigin() {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// AnnouncedToExternal returns the prefixes that reach the RIB of the given
// external node (i.e. what the network announces to that peer), sorted.
func (s *refSim) AnnouncedToExternal(ext *procgraph.Node) []netaddr.Prefix {
	rb, ok := s.ribs[ext]
	if !ok {
		return nil
	}
	self := fmt.Sprintf("external:AS%d", ext.ExtAS)
	var out []netaddr.Prefix
	for p, r := range rb.routes {
		// Exclude what the peer itself injected: keep routes carrying any
		// origin other than the peer's own announcements.
		announced := false
		for _, o := range r.Origins {
			if o != self {
				announced = true
				break
			}
		}
		if announced {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func refSortRoutes(m map[netaddr.Prefix]*refRoute) []*refRoute {
	out := make([]*refRoute, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Less(out[j].Prefix) })
	return out
}

// refCase is one network and injection TestMatchesReference compares on.
type refCase struct {
	name string
	net  *devmodel.Network
	ext  []simroute.ExternalRoute
}

// maxRounds bounds the rounds any compared network may take: far below
// refSim's 10,000-round cap, so the cap never decided a reference answer.
const maxRounds = 100

// TestMatchesReference runs the production simulator and refSim on the
// paper example, net15, net5, the smallest corpus network of every other
// netgen kind and a 600-router provider fabric, each with a default route
// injected at every external peer (what rlensd injects), and requires
// every query answer to be identical.
func TestMatchesReference(t *testing.T) {
	def := []simroute.ExternalRoute{{Prefix: netaddr.PrefixFrom(0, 0)}}
	paper, err := paperexample.Build()
	if err != nil {
		t.Fatal(err)
	}
	cases := []refCase{{"paper-example", paper, def}}
	corpus := netgen.GenerateCorpus(2004)
	build := func(g *netgen.Generated) *devmodel.Network {
		n, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n15 := build(corpus.ByName("net15"))
	cases = append(cases,
		refCase{"net15", n15, def},
		refCase{"net15-paper-injection", n15, net15.ExternalRoutes()})
	for _, name := range []string{"net5", "net1", "net6", "net13", "net26", "net30", "net31"} {
		cases = append(cases, refCase{name, build(corpus.ByName(name)), def})
	}
	cases = append(cases, refCase{"provider600", build(netgen.GenerateProvider(1, 600)), def})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { compareWithReference(t, c.net, c.ext) })
	}
}

// compareWithReference simulates the network with both simulators and
// reports every query whose answers differ.
func compareWithReference(t *testing.T, n *devmodel.Network, ext []simroute.ExternalRoute) {
	t.Helper()
	g := procgraph.Build(n, topology.Build(n))
	ref := newRefSim(g, ext)
	refRounds := ref.Run()
	sim := simroute.New(g, ext)
	if rounds := sim.Run(); rounds != refRounds {
		t.Errorf("Run: %d rounds, reference %d", rounds, refRounds)
	}
	if refRounds > maxRounds {
		t.Errorf("reference took %d rounds, want at most %d", refRounds, maxRounds)
	}

	// Past the first mismatches, the rest add nothing but length.
	mismatches := 0
	report := func(what string, got, want any) {
		t.Helper()
		if mismatches++; mismatches <= 20 {
			t.Errorf("%s:\n got  %v\n want %v", what, got, want)
		}
	}
	defer func() {
		if mismatches > 20 {
			t.Errorf("%d more mismatches", mismatches-20)
		}
	}()

	var universe []netaddr.Prefix
	seen := map[netaddr.Prefix]bool{}
	for _, node := range g.Nodes {
		for p := range ref.ribs[node].routes {
			if !seen[p] {
				seen[p] = true
				universe = append(universe, p)
			}
			if got, want := sim.LearnedFrom(node, p), ref.LearnedFrom(node, p); got != want {
				report(fmt.Sprintf("LearnedFrom(%s, %s)", node.ID(), p), nodeID(got), nodeID(want))
			}
		}
	}
	for _, node := range g.ExternalNodes() {
		if got, want := sim.AnnouncedToExternal(node), ref.AnnouncedToExternal(node); !slices.Equal(got, want) {
			report("AnnouncedToExternal("+node.ID()+")", got, want)
		}
	}
	var probes []netaddr.Addr
	for _, d := range n.Devices {
		for _, i := range d.Interfaces {
			for _, a := range i.Addrs {
				probes = append(probes, a.Addr, a.Addr+1)
			}
		}
	}
	slices.Sort(probes)
	probes = slices.Compact(probes)

	for _, d := range n.Devices {
		for _, p := range d.Processes {
			got, want := sim.ProcRoutes(p), ref.ProcRoutes(p)
			if len(got) != len(want) {
				report(fmt.Sprintf("ProcRoutes(%s %s) length", d.Hostname, p.Key()), len(got), len(want))
				continue
			}
			for i := range got {
				if !sameRoute(got[i], want[i]) {
					report(fmt.Sprintf("ProcRoutes(%s %s)[%d]", d.Hostname, p.Key(), i), *got[i], *want[i])
				}
			}
		}
		got, want := sim.RouterRoutes(d), ref.RouterRoutes(d)
		if len(got) != len(want) {
			report("RouterRoutes("+d.Hostname+") length", len(got), len(want))
		} else {
			for i := range got {
				if !sameSelected(got[i], want[i]) {
					report(fmt.Sprintf("RouterRoutes(%s)[%d]", d.Hostname, i), got[i], want[i])
				}
			}
		}
		if got, want := sim.ExternalRoutesAt(d), ref.ExternalRoutesAt(d); !slices.Equal(got, want) {
			report("ExternalRoutesAt("+d.Hostname+")", got, want)
		}
		for _, p := range universe {
			if got, want := sim.HasRoute(d, p), ref.HasRoute(d, p); got != want {
				report(fmt.Sprintf("HasRoute(%s, %s)", d.Hostname, p), got, want)
			}
		}
		for _, a := range probes {
			// refSim's CanReach is its SelectedAt's ok.
			gotSel, gotPfx, gotOK := sim.SelectedAt(d, a)
			wantSel, wantPfx, wantOK := ref.SelectedAt(d, a)
			if gotOK != wantOK || gotOK && (gotPfx != wantPfx || !sameSelected(gotSel, wantSel)) {
				report(fmt.Sprintf("SelectedAt(%s, %s)", d.Hostname, a), gotPfx, wantPfx)
			}
			if got := sim.CanReach(d, a); got != wantOK {
				report(fmt.Sprintf("CanReach(%s, %s)", d.Hostname, a), got, wantOK)
			}
		}
	}
}

func nodeID(n *procgraph.Node) string {
	if n == nil {
		return "<nil>"
	}
	return n.ID()
}

func sameRoute(r *simroute.Route, want *refRoute) bool {
	return r.Prefix == want.Prefix &&
		slices.Equal(r.Tags, simroute.LabelSet(want.Tags)) &&
		slices.Equal(r.Origins, simroute.LabelSet(want.Origins))
}

func sameSelected(s simroute.Selected, want refSelected) bool {
	return s.Proto == want.Proto && s.Distance == want.Distance && sameRoute(s.Route, want.Route)
}
