// Package simroute is a static control-plane simulator: it propagates
// routes through the routing process graph (origination from connected
// subnets and static routes, flooding across adjacencies, policy-filtered
// redistribution between processes, and administrative-distance selection
// into each router RIB), implementing the route-flow model of the paper's
// Figure 3.
//
// The simulator is deliberately qualitative. It answers "which prefixes can
// appear in which RIBs under the configured policies" — the question the
// paper's reachability analysis [27] needs — rather than computing exact
// best paths, metrics, or convergence dynamics.
//
// Representation. Flows only move prefixes that origination put somewhere,
// so the prefix universe is fixed once New returns: prefixes are interned
// to dense IDs in address order, and one binary trie over them serves
// longest-prefix match. A route's attributes — its (tags, origins) label
// sets — are interned too, with memoized unions, so merging a route into a
// RIB compares and stores one small integer. The RIB of a node that
// receives flows (process and external nodes) is a pointer-free array
// indexed by prefix ID holding the attribute ID and the node the prefix
// was first learned from; local RIBs, which only originate, are short
// sorted lists. Router-RIB selection is not stored: queries select by
// administrative distance from the device's local and process RIBs when
// asked, and build Route and Selected values only for what they return.
//
// Reuse and shards. The fixpoint factorizes by prefix, so when two
// simulations move routes over the same flows, Reuse copies an earlier
// one's fixpoint for every prefix whose origination is unchanged, and Run
// then moves only the rest. For the same reason Run splits the prefixes
// it moves into contiguous ranges and moves each on its own goroutine.
package simroute

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"

	"routinglens/internal/devmodel"
	"routinglens/internal/fanout"
	"routinglens/internal/netaddr"
	"routinglens/internal/procgraph"
)

// LabelSet is a small set of string labels stored as a sorted slice.
// Routes carry at most a handful of tags and origins. The zero value is
// the empty set.
type LabelSet []string

// Has reports membership.
func (s LabelSet) Has(v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// union returns the sorted union of two label sets as a new slice.
func union(a, b LabelSet) LabelSet {
	out := make(LabelSet, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Route is one routing-table entry in a RIB. Tags and origins accumulate
// monotonically as the same prefix is learned over multiple pathways.
type Route struct {
	Prefix netaddr.Prefix
	// Tags carries route tags applied by route-maps ("set tag"); IGPs that
	// transport tags (OSPF, EIGRP) propagate them.
	Tags LabelSet
	// Origins records where the route entered the model: "connected",
	// "static", or "external:AS<n>".
	Origins LabelSet
}

// HasOrigin reports whether the route carries the origin label.
func (r *Route) HasOrigin(o string) bool { return r.Origins.Has(o) }

// ExternalOrigin reports whether any origin is external.
func (r *Route) ExternalOrigin() bool { return externalOrigin(r.Origins) }

func externalOrigin(origins LabelSet) bool {
	for _, o := range origins {
		if len(o) > 9 && o[:9] == "external:" {
			return true
		}
	}
	return false
}

// ExternalRoute is a route injected at an external peer.
type ExternalRoute struct {
	Prefix netaddr.Prefix
	// AS identifies the announcing external AS; 0 means unknown.
	AS uint32
}

// attrID names one interned (tags, origins) pair. 0 means no route.
type attrID uint32

// attrs is one interned (tags, origins) pair and the facts route
// selection and the reach views read from it.
type attrs struct {
	tags, origins LabelSet
	external      bool // some origin is external
	// static marks a local route selection installs as static: it has
	// the "static" origin and not the "connected" one.
	static bool
}

// labelKey memoizes adding one label to an attribute set.
type labelKey struct {
	a     attrID
	label string
	tag   bool // a tag, else an origin
}

// interner assigns attribute IDs and memoizes the set operations the
// fixpoint performs on them. New, Reuse and Run write the Sim's; each of
// Run's shards past the first writes a fork, whose new IDs Run folds
// back in. Queries only read it.
type interner struct {
	sets   []attrs // by attrID; sets[0] is the absent route
	index  map[string]attrID
	unions map[[2]attrID]attrID
	added  map[labelKey]attrID
	// recent caches unions direct-mapped in front of the map: the
	// fixpoint asks for the same few pairs millions of times.
	recent [1024]struct{ a, b, id attrID }
}

func newInterner() *interner {
	return &interner{
		sets:   []attrs{{}},
		index:  make(map[string]attrID),
		unions: make(map[[2]attrID]attrID),
		added:  make(map[labelKey]attrID),
	}
}

// fork returns a copy of the interner that shares its label sets but
// none of its tables, so the two can intern on separate goroutines.
func (in *interner) fork() *interner {
	return &interner{
		sets:   slices.Clip(in.sets),
		index:  maps.Clone(in.index),
		unions: maps.Clone(in.unions),
		added:  maps.Clone(in.added),
		recent: in.recent,
	}
}

// intern returns the ID of the (tags, origins) pair, taking ownership of
// both slices when the pair is new.
func (in *interner) intern(tags, origins LabelSet) attrID {
	key := strings.Join(tags, "\x00") + "\x01" + strings.Join(origins, "\x00")
	if id, ok := in.index[key]; ok {
		return id
	}
	if len(tags) == 0 {
		tags = nil // as a route that never had a tag set
	}
	id := attrID(len(in.sets))
	in.sets = append(in.sets, attrs{
		tags:     slices.Clip(tags),
		origins:  slices.Clip(origins),
		external: externalOrigin(origins),
		static:   origins.Has("static") && !origins.Has("connected"),
	})
	in.index[key] = id
	return id
}

// union returns the ID of the label-wise union of a and b.
func (in *interner) union(a, b attrID) attrID {
	if a == b || b == 0 {
		return a
	}
	if a == 0 {
		return b
	}
	if a > b {
		a, b = b, a
	}
	e := &in.recent[(a*0x9e3779b1^b)%attrID(len(in.recent))]
	if e.a == a && e.b == b {
		return e.id
	}
	key := [2]attrID{a, b}
	id, ok := in.unions[key]
	if !ok {
		sa, sb := in.sets[a], in.sets[b]
		id = in.intern(union(sa.tags, sb.tags), union(sa.origins, sb.origins))
		in.unions[key] = id
	}
	e.a, e.b, e.id = a, b, id
	return id
}

// add returns the ID of a with one more tag (tag) or origin (!tag).
func (in *interner) add(a attrID, label string, tag bool) attrID {
	key := labelKey{a, label, tag}
	if id, ok := in.added[key]; ok {
		return id
	}
	s := in.sets[a]
	tags, origins := s.tags, s.origins
	if tag {
		tags = union(tags, LabelSet{label})
	} else {
		origins = union(origins, LabelSet{label})
	}
	id := in.intern(tags, origins)
	in.added[key] = id
	return id
}

// slot is one prefix's entry in a flow-target RIB.
type slot struct {
	attr attrID
	// from is 1 + the index of the node the prefix was first learned
	// from; 0 when the node originated it (or holds no route).
	from int32
}

// localRoute is one entry of a local RIB.
type localRoute struct {
	pid  int32
	attr attrID
}

// rib is a monotone route set keyed by prefix ID. Origination in New
// appends each prefix it sets to log, which Reuse trims to the prefixes
// it did not copy: the worklist Run starts from. Run hands it to its
// shards, whose own logs carry the later changes, and frees it.
type rib struct {
	slots []slot       // flow targets: indexed by prefix ID
	local []localRoute // local RIBs: sorted by prefix ID
	log   []int32
	// ext lists the prefix IDs whose route carries an external origin,
	// unordered: New's and Reuse's, then each shard's in shard order.
	ext []int32
}

// attr returns the attribute ID of the prefix's route, 0 when absent.
func (rb *rib) attr(pid int32) attrID {
	if rb.slots != nil {
		return rb.slots[pid].attr
	}
	if i, ok := rb.find(pid); ok {
		return rb.local[i].attr
	}
	return 0
}

// find returns the position of the prefix in a local RIB and whether
// the RIB holds it.
func (rb *rib) find(pid int32) (int, bool) {
	return slices.BinarySearchFunc(rb.local, pid, func(r localRoute, pid int32) int { return cmp.Compare(r.pid, pid) })
}

// set records an originated attribute for the prefix's route and logs
// the change.
func (rb *rib) set(in *interner, pid int32, old, a attrID) {
	if rb.slots != nil {
		rb.slots[pid].attr = a
	} else if i, ok := rb.find(pid); ok {
		rb.local[i].attr = a
	} else {
		rb.local = slices.Insert(rb.local, i, localRoute{pid, a})
	}
	rb.log = append(rb.log, pid)
	if in.sets[a].external && !in.sets[old].external {
		rb.ext = append(rb.ext, pid)
	}
}

// trieNode is one bit position of the prefix trie. Child index 0 means
// none: the root is node 0 and is nobody's child.
type trieNode struct {
	child [2]int32
	pid   int32 // the prefix ending here, or -1
}

// flow is one adjacency or redistribution edge in the fixpoint's order.
type flow struct {
	edge     *procgraph.Edge
	from, to int32 // node indices
	// dev holds the ACLs and route-maps in scope for the edge's policy;
	// nil when the edge carries no policy or no device scopes it.
	dev *devmodel.Device
}

// devRIBs lists the RIBs route selection reads on one device: its local
// RIB, then its processes in configuration order.
type devRIBs struct {
	local int32
	procs []procRIB
}

// procRIB is one process RIB route selection reads, with the protocol
// and administrative distance its routes are installed under.
type procRIB struct {
	node  int32
	proto devmodel.Protocol
	dist  int
}

// Sim is one simulation over a process graph. After Run, every query is
// read-only, so one Sim may serve concurrent readers.
type Sim struct {
	Graph *procgraph.Graph

	external []ExternalRoute  // the injections New was given
	prefixes []netaddr.Prefix // by prefix ID, in address order
	trie     []trieNode
	labels   *interner
	nodeIdx  map[*procgraph.Node]int32
	ribs     []rib // by node index in Graph.Nodes
	flows    []flow
	devs     map[*devmodel.Device]devRIBs

	// devAlias/procAlias redirect device- and process-keyed queries onto
	// class representatives when the sim runs over a compressed graph
	// (see internal/compress). Nil in the ordinary full-graph case.
	devAlias  map[*devmodel.Device]*devmodel.Device
	procAlias map[*devmodel.RoutingProcess]*devmodel.RoutingProcess
}

// SetAliases installs query aliases: lookups for a device or routing
// process present in the maps are answered from the mapped target's
// tables instead. internal/compress uses this to serve full-model
// queries from a simulation of the reduced graph — a collapsed router's
// RIB is, by construction of the quotient, identical to its class
// representative's. Call before querying; the sim itself is unaffected.
func (s *Sim) SetAliases(dev map[*devmodel.Device]*devmodel.Device, proc map[*devmodel.RoutingProcess]*devmodel.RoutingProcess) {
	s.devAlias = dev
	s.procAlias = proc
}

// Canonical returns the device whose tables answer queries about d: d
// itself normally, its class representative when d is aliased. Walks
// that aggregate an existential or union view over every device can
// skip devices whose canonical form they have already visited — the
// aliased ones contribute exactly their representative's rows.
func (s *Sim) Canonical(d *devmodel.Device) *devmodel.Device {
	return s.dev(d)
}

func (s *Sim) dev(d *devmodel.Device) *devmodel.Device {
	if r, ok := s.devAlias[d]; ok {
		return r
	}
	return d
}

func (s *Sim) proc(p *devmodel.RoutingProcess) *devmodel.RoutingProcess {
	if r, ok := s.procAlias[p]; ok {
		return r
	}
	return p
}

// Selected is one router-RIB entry after route selection.
type Selected struct {
	Route *Route
	// Proto is the winning source protocol.
	Proto devmodel.Protocol
	// Distance is the winning administrative distance.
	Distance int
}

// New prepares a simulation for the graph, injecting the given external
// routes at every external peer node whose AS matches (routes with AS 0 are
// injected at all external peers).
func New(g *procgraph.Graph, external []ExternalRoute) *Sim {
	s := &Sim{
		Graph:    g,
		external: slices.Clone(external),
		labels:   newInterner(),
		nodeIdx:  make(map[*procgraph.Node]int32, len(g.Nodes)),
		ribs:     make([]rib, len(g.Nodes)),
		devs:     make(map[*devmodel.Device]devRIBs, len(g.Network.Devices)),
	}
	for i, n := range g.Nodes {
		s.nodeIdx[n] = int32(i)
	}
	origins := s.origins()
	s.internPrefixes(origins)

	// Flow targets get one array slot per prefix, carved from one backing
	// array; local RIBs stay sparse.
	targets := 0
	for _, n := range g.Nodes {
		if n.Kind == procgraph.ProcRIB || n.Kind == procgraph.External {
			targets++
		}
	}
	backing := make([]slot, targets*len(s.prefixes))
	for i, n := range g.Nodes {
		if n.Kind == procgraph.ProcRIB || n.Kind == procgraph.External {
			s.ribs[i].slots = backing[:len(s.prefixes):len(s.prefixes)]
			backing = backing[len(s.prefixes):]
		}
	}
	for _, o := range origins {
		rb := &s.ribs[o.node]
		pid := s.lookup(o.prefix)
		old := rb.attr(pid)
		if a := s.labels.add(old, o.label, false); a != old {
			rb.set(s.labels, pid, old, a)
		}
	}

	s.flows = make([]flow, 0, len(g.Edges))
	for _, e := range g.Edges {
		if e.Kind != procgraph.Adjacency && e.Kind != procgraph.Redistribution {
			continue
		}
		f := flow{edge: e, from: s.nodeIdx[e.From], to: s.nodeIdx[e.To]}
		if len(e.DistributeLists) > 0 || e.RouteMap != "" {
			if e.To.Device != nil {
				f.dev = e.To.Device
			} else {
				f.dev = e.From.Device
			}
		}
		s.flows = append(s.flows, f)
	}
	for _, d := range g.Network.Devices {
		dr := devRIBs{local: s.nodeIdx[g.LocalNode(d)], procs: make([]procRIB, len(d.Processes))}
		for i, p := range d.Processes {
			dr.procs[i] = procRIB{s.nodeIdx[g.ProcNode(p)], p.Protocol, p.Protocol.AdminDistance()}
		}
		s.devs[d] = dr
	}
	return s
}

// origin is one origination event: a label added to a prefix's route in
// a node's RIB.
type origin struct {
	node   int32
	prefix netaddr.Prefix
	label  string
}

// origins lists the simulation's origination events: local seeding, then
// the external injections.
func (s *Sim) origins() []origin {
	return s.injectExternal(s.originateLocal(nil), s.external)
}

// originateLocal records the seeding of local RIBs with connected subnets
// and static routes, and of process RIBs with the connected subnets their
// network statements cover.
func (s *Sim) originateLocal(out []origin) []origin {
	for _, d := range s.Graph.Network.Devices {
		local := s.nodeIdx[s.Graph.LocalNode(d)]
		for _, i := range d.Interfaces {
			if i.Shutdown {
				continue
			}
			for _, a := range i.Addrs {
				if p, ok := a.Prefix(); ok {
					out = append(out, origin{local, p, "connected"})
				}
			}
		}
		for _, sr := range d.Statics {
			out = append(out, origin{local, sr.Prefix, "static"})
		}
		for _, proc := range d.Processes {
			pn := s.nodeIdx[s.Graph.ProcNode(proc)]
			for _, i := range d.Interfaces {
				if i.Shutdown {
					continue
				}
				for _, a := range i.Addrs {
					p, ok := a.Prefix()
					if !ok || !proc.CoversAddr(a.Addr) {
						continue
					}
					out = append(out, origin{pn, p, "connected"})
				}
			}
			// BGP additionally originates explicit network statements with
			// masks (announcements of internal blocks).
			if proc.Protocol == devmodel.ProtoBGP {
				for _, ns := range proc.Networks {
					if ns.HasMask {
						if p, err := netaddr.PrefixFromMask(ns.Addr, ns.Mask); err == nil {
							out = append(out, origin{pn, p, "connected"})
						}
					}
				}
			}
		}
	}
	return out
}

func (s *Sim) injectExternal(out []origin, external []ExternalRoute) []origin {
	for _, n := range s.Graph.ExternalNodes() {
		label := fmt.Sprintf("external:AS%d", n.ExtAS)
		for _, er := range external {
			if er.AS == 0 || er.AS == n.ExtAS {
				out = append(out, origin{s.nodeIdx[n], er.Prefix, label})
			}
		}
	}
	return out
}

// internPrefixes numbers the originated prefixes in address order and
// builds the trie over them.
func (s *Sim) internPrefixes(origins []origin) {
	for _, o := range origins {
		s.prefixes = append(s.prefixes, o.prefix)
	}
	sort.Slice(s.prefixes, func(i, j int) bool { return s.prefixes[i].Less(s.prefixes[j]) })
	s.prefixes = slices.Clip(slices.Compact(s.prefixes))
	s.trie = []trieNode{{pid: -1}}
	for pid, p := range s.prefixes {
		n := int32(0)
		for depth := 0; depth < p.Bits(); depth++ {
			bit := uint32(p.Addr()) >> (31 - depth) & 1
			if s.trie[n].child[bit] == 0 {
				s.trie[n].child[bit] = int32(len(s.trie))
				s.trie = append(s.trie, trieNode{pid: -1})
			}
			n = s.trie[n].child[bit]
		}
		s.trie[n].pid = int32(pid)
	}
}

// lookup returns the prefix's ID, or -1 when no RIB holds it.
func (s *Sim) lookup(p netaddr.Prefix) int32 {
	n := int32(0)
	for depth := 0; depth < p.Bits(); depth++ {
		if n = s.trie[n].child[uint32(p.Addr())>>(31-depth)&1]; n == 0 {
			return -1
		}
	}
	return s.trie[n].pid
}

// Run iterates route propagation to a fixpoint. It returns the number of
// propagation rounds executed. Router-RIB selection happens per query.
//
// Propagation is incremental: every RIB keeps a log of route insertions
// and attribute changes, and each edge holds a cursor into its source's
// log, so a route is pushed across an edge once per change rather than
// once per round. Edges are visited in the graph's edge order, and a
// round's flow over an edge takes the source log as it stands when the
// edge is reached. The order matters: route-maps that match tags make the
// fixpoint depend on which pathway delivers a prefix first.
//
// Run needs no round cap. A round runs again only when some flow added a
// prefix to a RIB or a label to a route; every RIB holds a subset of the
// prefixes originated in New, and every route's labels are drawn from the
// finite set of origins and route-map tags, so the loop stops after at
// most (flow-target nodes × prefixes × (labels + 1)) + 1 rounds.
//
// Sharding. The fixpoint factorizes by prefix (see Reuse), so Run splits
// the prefixes its worklists hold (all of them after New, the ones Reuse
// left after Reuse) into up to GOMAXPROCS contiguous prefix-ID ranges of
// equal prefix count, and moves each range on its own goroutine with the
// same loop. A shard writes only its own prefixes' slots, so no lock is
// taken. The first shard interns into the Sim's interner and every other
// into a fork of it; when the shards return, Run folds each fork's new
// attribute IDs into the Sim's interner in shard order and rewrites that
// shard's slots. Every shard stops after the rounds its own prefixes
// need, so the largest shard's count is a whole run's. Run shards only
// when each shard would own at least minShardSlots flow-target slots: a
// one-prefix reload or a small network runs inline on the caller's
// goroutine.
//
// The logs are only Run's worklists. Each round every log drops what all
// of its node's outgoing flows have consumed, a node with no outgoing
// flow keeps none, and Run frees them when it returns: on net5 they
// would otherwise outgrow the RIBs themselves.
func (s *Sim) Run() int {
	moved := s.moved()
	slots := 0 // flow-target slots of the moved prefixes
	for i := range s.ribs {
		if s.ribs[i].slots != nil {
			slots += len(moved)
		}
	}
	return s.run(moved, min(runtime.GOMAXPROCS(0), slots/minShardSlots))
}

// minShardSlots is the fewest flow-target slots (moved prefixes ×
// flow-target RIBs) a shard must own for Run to start it: below that,
// waking a goroutine costs more than the shard's share of the run.
const minShardSlots = 1 << 16

// moved returns, in ID order, the prefixes some log holds: those Run
// must move.
func (s *Sim) moved() []int32 {
	logged := make([]bool, len(s.prefixes))
	for i := range s.ribs {
		for _, pid := range s.ribs[i].log {
			logged[pid] = true
		}
	}
	var out []int32
	for pid, ok := range logged {
		if ok {
			out = append(out, int32(pid))
		}
	}
	return out
}

// run moves the given prefixes to their fixpoint in n shards, inline
// when n is below 2.
func (s *Sim) run(moved []int32, n int) int {
	feeds := make([]bool, len(s.ribs))
	for _, f := range s.flows {
		feeds[f.from] = true
	}
	n = max(1, min(n, len(moved)))
	base := attrID(len(s.labels.sets))
	shards := make([]*shard, n)
	for k := range shards {
		labels := s.labels // forked before any shard starts
		if k > 0 {
			labels = s.labels.fork()
		}
		shards[k] = &shard{
			s:      s,
			feeds:  feeds,
			pids:   moved[k*len(moved)/n : (k+1)*len(moved)/n],
			labels: labels,
			logs:   make([][]int32, len(s.ribs)),
			cursor: make([]int, len(s.flows)),
			low:    make([]int, len(s.ribs)),
		}
	}
	for i := range s.ribs {
		rb := &s.ribs[i]
		switch {
		case !feeds[i]:
		case n == 1:
			shards[0].logs[i] = rb.log
		default:
			for _, pid := range rb.log {
				sh := shards[sort.Search(n-1, func(k int) bool { return pid < shards[k+1].pids[0] })]
				sh.logs[i] = append(sh.logs[i], pid)
			}
		}
		rb.log = nil
	}
	if n == 1 {
		shards[0].run()
	} else {
		work := make([]func(), n)
		for k, sh := range shards {
			work[k] = sh.run
		}
		fanout.GoAll(work...)
	}
	rounds := 0
	for k, sh := range shards {
		rounds = max(rounds, sh.rounds)
		if k > 0 {
			s.fold(sh, base)
		}
		for _, e := range sh.ext {
			s.ribs[e.node].ext = append(s.ribs[e.node].ext, e.pid)
		}
	}
	return rounds
}

// shard is one goroutine's share of Run: the prefixes it moves, and
// the worklists and interner it moves them with.
type shard struct {
	s      *Sim
	feeds  []bool  // by node: some flow leaves it, so it keeps a log
	pids   []int32 // the prefixes moved, a contiguous ID range's
	labels *interner
	logs   [][]int32    // by node
	cursor []int        // by flow: how much of its source log the flow has consumed
	low    []int        // by node: trim's scratch
	ext    []nodePrefix // routes whose origins turned external
	rounds int
}

// nodePrefix names a prefix's route in one node's RIB.
type nodePrefix struct{ node, pid int32 }

// run is Run's loop over the shard's prefixes.
func (sh *shard) run() {
	s := sh.s
	for {
		sh.rounds++
		changed := false
		for i := range s.flows {
			f := &s.flows[i]
			log := sh.logs[f.from]
			from := sh.cursor[i]
			if from == len(log) {
				continue
			}
			// Snapshot the log length: entries appended during this flow
			// belong to the next round.
			to := len(log)
			sh.cursor[i] = to
			if sh.flowDelta(f, log[from:to]) {
				changed = true
			}
		}
		if !changed {
			return
		}
		sh.trim()
	}
}

// trim drops from every log the entries all of its node's outgoing flows
// have consumed.
func (sh *shard) trim() {
	low := sh.low
	for i := range low {
		low[i] = -1
	}
	flows := sh.s.flows
	for i := range flows {
		if l := &low[flows[i].from]; *l < 0 || sh.cursor[i] < *l {
			*l = sh.cursor[i]
		}
	}
	for node, l := range low {
		if l > 0 {
			log := sh.logs[node]
			sh.logs[node] = log[:copy(log, log[l:])]
		}
	}
	for i := range flows {
		sh.cursor[i] -= low[flows[i].from]
	}
}

// flowDelta moves the routes of the given changed prefixes across one
// edge, applying the edge's policy annotations. It reports whether the
// destination RIB changed.
func (sh *shard) flowDelta(f *flow, delta []int32) bool {
	s := sh.s
	src, dst := &s.ribs[f.from], &s.ribs[f.to]
	in := sh.labels
	changed := false
	for _, pid := range delta {
		var a attrID
		if src.slots != nil {
			a = src.slots[pid].attr
		} else {
			a = src.attr(pid)
		}
		if f.dev != nil {
			ok, setTag := s.permitted(f.edge, f.dev, s.prefixes[pid], in.sets[a].tags)
			if !ok {
				continue
			}
			if setTag != "" {
				a = in.add(a, setTag, true)
			}
		}
		sl := &dst.slots[pid]
		old := sl.attr
		if old == a {
			continue
		}
		merged := in.union(old, a)
		if merged == old {
			continue
		}
		if old == 0 {
			sl.from = f.from + 1
		}
		sl.attr = merged
		if sh.feeds[f.to] {
			sh.logs[f.to] = append(sh.logs[f.to], pid)
		}
		if in.sets[merged].external && !in.sets[old].external {
			sh.ext = append(sh.ext, nodePrefix{f.to, pid})
		}
		changed = true
	}
	return changed
}

// fold interns the attributes a forked shard added past base into the
// Sim's interner and rewrites the shard's slots to the Sim's IDs.
func (s *Sim) fold(sh *shard, base attrID) {
	added := sh.labels.sets[base:]
	if len(added) == 0 {
		return
	}
	remap := make([]attrID, len(added))
	for i, a := range added {
		remap[i] = s.labels.intern(a.tags, a.origins)
	}
	for i := range s.ribs {
		slots := s.ribs[i].slots
		if slots == nil {
			continue
		}
		for _, pid := range sh.pids {
			if a := slots[pid].attr; a >= base {
				slots[pid].attr = remap[a-base]
			}
		}
	}
}

// LearnedFrom returns the node from which the given node first learned the
// prefix — the edge source of the first flow that brought it — or nil when
// the node originated the route itself.
func (s *Sim) LearnedFrom(n *procgraph.Node, p netaddr.Prefix) *procgraph.Node {
	i, ok := s.nodeIdx[n]
	if !ok || s.ribs[i].slots == nil {
		return nil
	}
	pid := s.lookup(p)
	if pid < 0 {
		return nil
	}
	if from := s.ribs[i].slots[pid].from; from != 0 {
		return s.Graph.Nodes[from-1]
	}
	return nil
}

// permitted evaluates the edge's policies against the route on device dev
// (whose ACLs and route-maps are in scope). It returns whether the route
// passes and any tag to set.
func (s *Sim) permitted(e *procgraph.Edge, dev *devmodel.Device, p netaddr.Prefix, tags LabelSet) (bool, string) {
	// Distribute lists: all listed ACLs must permit the prefix.
	for _, aclName := range e.DistributeLists {
		acl, ok := dev.AccessLists[aclName]
		if !ok {
			// Undefined ACL permits everything in IOS.
			continue
		}
		if !acl.PermitsPrefix(p) {
			return false, ""
		}
	}
	if e.RouteMap != "" {
		rm, ok := dev.RouteMaps[e.RouteMap]
		if ok {
			return evalRouteMap(dev, rm, p, tags)
		}
	}
	return true, ""
}

// evalRouteMap evaluates the route-map against the route: first matching
// entry decides; no match denies.
func evalRouteMap(dev *devmodel.Device, rm *devmodel.RouteMap, p netaddr.Prefix, tags LabelSet) (bool, string) {
	for _, ent := range rm.Entries {
		if !entryMatches(dev, ent, p, tags) {
			continue
		}
		if ent.Action == devmodel.ActionDeny {
			return false, ""
		}
		return true, ent.SetTag
	}
	return false, ""
}

func entryMatches(dev *devmodel.Device, ent devmodel.RouteMapEntry, p netaddr.Prefix, tags LabelSet) bool {
	if len(ent.MatchACLs) == 0 && len(ent.MatchTags) == 0 && len(ent.MatchPrefixLists) == 0 {
		return true // match-all entry
	}
	for _, aclName := range ent.MatchACLs {
		if acl, ok := dev.AccessLists[aclName]; ok && acl.PermitsPrefix(p) {
			return true
		}
	}
	for _, plName := range ent.MatchPrefixLists {
		if pl, ok := dev.PrefixLists[plName]; ok && pl.Permits(p) {
			return true
		}
	}
	for _, tag := range ent.MatchTags {
		if tags.Has(tag) {
			return true
		}
	}
	return false
}

// selection is the winner of administrative-distance selection for one
// prefix on one device.
type selection struct {
	attr  attrID // 0 when no RIB on the device holds the prefix
	proto devmodel.Protocol
	dist  int
}

// selectAt runs administrative-distance selection for one prefix: the
// local RIB's route first (connected, or static when only static), then
// each process's in configuration order, a later one winning only on a
// strictly lower distance.
func (s *Sim) selectAt(dr devRIBs, pid int32) selection {
	var best selection
	if a := s.ribs[dr.local].attr(pid); a != 0 {
		best = selection{attr: a, proto: devmodel.ProtoConnected}
		if s.labels.sets[a].static {
			best.proto, best.dist = devmodel.ProtoStatic, 1
		}
	}
	for _, p := range dr.procs {
		if a := s.ribs[p.node].slots[pid].attr; a != 0 && (best.attr == 0 || p.dist < best.dist) {
			best = selection{attr: a, proto: p.proto, dist: p.dist}
		}
	}
	return best
}

// holds reports whether any RIB on the device holds the prefix.
func (s *Sim) holds(dr devRIBs, pid int32) bool {
	if s.ribs[dr.local].attr(pid) != 0 {
		return true
	}
	for _, p := range dr.procs {
		if s.ribs[p.node].slots[pid].attr != 0 {
			return true
		}
	}
	return false
}

// route builds the Route value of a prefix's interned attributes. The
// label sets are shared with the interner, capped so appends copy.
func (s *Sim) route(pid int32, a attrID) Route {
	set := s.labels.sets[a]
	return Route{Prefix: s.prefixes[pid], Tags: set.tags, Origins: set.origins}
}

// longestHeld walks the trie along addr and returns the ID of the
// longest prefix covering it that the device holds, or -1.
func (s *Sim) longestHeld(dr devRIBs, addr netaddr.Addr) int32 {
	best, n := int32(-1), int32(0)
	for depth := 0; ; depth++ {
		if pid := s.trie[n].pid; pid >= 0 && s.holds(dr, pid) {
			best = pid
		}
		if depth == 32 {
			return best
		}
		if n = s.trie[n].child[uint32(addr)>>(31-depth)&1]; n == 0 {
			return best
		}
	}
}

// SelectedAt returns the winning router-RIB entry covering addr at the
// device using longest-prefix match, with ok=false when no route covers
// the address.
func (s *Sim) SelectedAt(d *devmodel.Device, addr netaddr.Addr) (Selected, netaddr.Prefix, bool) {
	dr, ok := s.devs[s.dev(d)]
	if !ok {
		return Selected{}, netaddr.Prefix{}, false
	}
	pid := s.longestHeld(dr, addr)
	if pid < 0 {
		return Selected{}, netaddr.Prefix{}, false
	}
	sel := s.selectAt(dr, pid)
	r := s.route(pid, sel.attr)
	return Selected{Route: &r, Proto: sel.proto, Distance: sel.dist}, r.Prefix, true
}

// ProcRoutes returns the routes in a process RIB, sorted by prefix.
func (s *Sim) ProcRoutes(p *devmodel.RoutingProcess) []*Route {
	n := s.Graph.ProcNode(s.proc(p))
	if n == nil {
		return nil
	}
	slots := s.ribs[s.nodeIdx[n]].slots
	count := 0
	for _, sl := range slots {
		if sl.attr != 0 {
			count++
		}
	}
	routes := make([]Route, 0, count)
	out := make([]*Route, 0, count)
	for pid, sl := range slots {
		if sl.attr != 0 {
			routes = append(routes, s.route(int32(pid), sl.attr))
			out = append(out, &routes[len(routes)-1])
		}
	}
	return out
}

// RouterRoutes returns the selected router-RIB entries of the device,
// sorted by prefix.
func (s *Sim) RouterRoutes(d *devmodel.Device) []Selected {
	dr, ok := s.devs[s.dev(d)]
	if !ok {
		return nil
	}
	var sels []selection
	var pids []int32
	for pid := range s.prefixes {
		if sel := s.selectAt(dr, int32(pid)); sel.attr != 0 {
			sels = append(sels, sel)
			pids = append(pids, int32(pid))
		}
	}
	if len(sels) == 0 {
		return nil
	}
	routes := make([]Route, len(sels))
	out := make([]Selected, len(sels))
	for i, sel := range sels {
		routes[i] = s.route(pids[i], sel.attr)
		out[i] = Selected{Route: &routes[i], Proto: sel.proto, Distance: sel.dist}
	}
	return out
}

// CanReach reports whether the device's router RIB contains a route
// covering the address.
func (s *Sim) CanReach(d *devmodel.Device, a netaddr.Addr) bool {
	dr, ok := s.devs[s.dev(d)]
	if !ok {
		return false
	}
	// Walk the trie along a; the first covering prefix held answers.
	n := int32(0)
	for depth := 0; ; depth++ {
		if pid := s.trie[n].pid; pid >= 0 && s.holds(dr, pid) {
			return true
		}
		if depth == 32 {
			return false
		}
		if n = s.trie[n].child[uint32(a)>>(31-depth)&1]; n == 0 {
			return false
		}
	}
}

// HasRoute reports whether the device's router RIB contains exactly the
// prefix.
func (s *Sim) HasRoute(d *devmodel.Device, p netaddr.Prefix) bool {
	dr, ok := s.devs[s.dev(d)]
	pid := s.lookup(p)
	return ok && pid >= 0 && s.holds(dr, pid)
}

// ExternalRoutesAt returns the prefixes with external origin present in the
// device's router RIB.
func (s *Sim) ExternalRoutesAt(d *devmodel.Device) []netaddr.Prefix {
	dr, ok := s.devs[s.dev(d)]
	if !ok {
		return nil
	}
	// Only a prefix some process RIB holds with an external origin can
	// win selection with one; local RIBs hold connected and static routes.
	var cand []int32
	for _, p := range dr.procs {
		cand = append(cand, s.ribs[p.node].ext...)
	}
	slices.Sort(cand)
	var out []netaddr.Prefix
	for _, pid := range slices.Compact(cand) {
		if s.labels.sets[s.selectAt(dr, pid).attr].external {
			out = append(out, s.prefixes[pid])
		}
	}
	return out
}

// AnnouncedToExternal returns the prefixes that reach the RIB of the given
// external node (i.e. what the network announces to that peer), sorted.
func (s *Sim) AnnouncedToExternal(ext *procgraph.Node) []netaddr.Prefix {
	i, ok := s.nodeIdx[ext]
	if !ok {
		return nil
	}
	self := fmt.Sprintf("external:AS%d", ext.ExtAS)
	var out []netaddr.Prefix
	for pid, sl := range s.ribs[i].slots {
		// Exclude what the peer itself injected: keep routes carrying any
		// origin other than the peer's own announcements.
		for _, o := range s.labels.sets[sl.attr].origins {
			if o != self {
				out = append(out, s.prefixes[pid])
				break
			}
		}
	}
	return out
}
