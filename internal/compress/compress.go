// Package compress computes a behavior-preserving quotient of an
// analyzed routing design, in the spirit of Control Plane Compression
// (Beckett et al., SIGCOMM 2018): routers that are exactly symmetric —
// identical policy configuration up to hostname and interface host
// addresses, identical subnet (and therefore link and instance)
// membership — are collapsed into equivalence classes, the control-plane
// analyses run on the reduced model built from one representative per
// class, and per-class answers expand back to concrete routers.
//
// The paper's observation makes this profitable: operational designs are
// a handful of patterns (compartments, symmetric edge blocks, redundant
// pairs) stamped out hundreds of times, so the quotient is O(design
// patterns) while the network is O(routers).
//
// Exactness, not approximation, is the contract. Two routers land in the
// same class only when every behavioral input to simroute/reach/whatif
// is identical between them:
//
//   - the dialect-normalized policy fingerprint: the full parsed device
//     model minus hostname, file name, and the host part of interface
//     addresses (interface subnets are kept — two devices with the same
//     subnet sets sit on the same links, so they have the same
//     neighborhoods);
//   - instance membership of every routing process;
//   - the adjacency signature: the multiset of incident process-graph
//     edges with their policy annotations and the neighbor's class,
//     refined to a fixpoint.
//
// Three guards then split any class whose collapse could still be
// observable, all of them conditions on the surrounding network rather
// than the class itself: a routing instance wholly contained in one
// class (its intra-class structure would vanish from the reduced
// model), members that are not pairwise adjacent inside a shared
// instance (the reduced instance would misrepresent connectivity), and
// a class member owning an address some device references as a BGP
// neighbor or static next hop (removing the member would change address
// ownership, flipping external-link classification or materializing
// phantom external peers). Finally the reduced model's instance
// structure is verified 1:1 against the full model; any mismatch falls
// back to the identity quotient, which is trivially exact.
//
// Nothing serves the quotient any more: rlensd and rdesign answer on the
// full design, which has been as fast or faster on every served row
// since the simulator's exact-order rewrite and the one-pass what-if
// (on net5 the quotient's reach takes as long as full simulation plus
// reach views; at 10k routers its build alone costs more than full
// reach or full what-if). The package remains only as the subject of
// perfbench's compress.* layer rows and of its own equivalence tests.
package compress

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"routinglens/internal/devmodel"
	"routinglens/internal/instance"
	"routinglens/internal/netaddr"
	"routinglens/internal/procgraph"
	"routinglens/internal/topology"
)

// Class is one equivalence class of behaviorally identical routers.
type Class struct {
	// Rep is the representative kept in the reduced model — the member
	// with the smallest hostname.
	Rep *devmodel.Device
	// Members lists every device of the class (including Rep), sorted by
	// hostname.
	Members []*devmodel.Device
}

// Stats summarizes a quotient for metrics and reports.
type Stats struct {
	Routers int
	Classes int
	// Ratio is Routers/Classes (1.0 for the identity quotient).
	Ratio    float64
	Identity bool
}

// Quotient is the compressed view of one analyzed design. Build with
// Compute; query through Sim, Reach, and Whatif, which run on the
// reduced model and expand answers back to the full router set.
type Quotient struct {
	// Full is the model the quotient was computed from.
	Full *instance.Model
	// Reduced is the instance model over one representative per class.
	// It aliases Full when Identity is true.
	Reduced *instance.Model
	// Classes are the equivalence classes, sorted by representative
	// hostname.
	Classes []Class
	// Identity reports that no compression was possible (or that
	// verification rejected the candidate partition): every class is a
	// singleton and Reduced == Full.
	Identity bool

	devAlias  map[*devmodel.Device]*devmodel.Device
	procAlias map[*devmodel.RoutingProcess]*devmodel.RoutingProcess
	instFull  map[*instance.Instance]*instance.Instance
	members   map[*devmodel.Device][]*devmodel.Device
}

// Stats returns the quotient's size statistics.
func (q *Quotient) Stats() Stats {
	s := Stats{
		Routers:  len(q.Full.Graph.Network.Devices),
		Classes:  len(q.Classes),
		Identity: q.Identity,
	}
	if s.Classes > 0 {
		s.Ratio = float64(s.Routers) / float64(s.Classes)
	}
	return s
}

// Members returns the full-model devices a representative stands for
// (the device itself when it is a singleton or not a representative).
func (q *Quotient) Members(rep *devmodel.Device) []*devmodel.Device {
	if ms, ok := q.members[rep]; ok {
		return ms
	}
	return []*devmodel.Device{rep}
}

// FullInstance maps a reduced-model instance to the corresponding
// full-model instance (identity when the quotient is the identity).
func (q *Quotient) FullInstance(in *instance.Instance) *instance.Instance {
	if q.Identity {
		return in
	}
	return q.instFull[in]
}

// Compute builds the quotient of the analyzed design. It never fails:
// when the network has no exploitable symmetry — or when the reduced
// model does not verify against the full one — the result is the
// identity quotient, which answers every query exactly like the full
// model.
func Compute(full *instance.Model) *Quotient {
	net := full.Graph.Network
	labels := initialLabels(full)
	refine(full.Graph, net.Devices, labels)
	applyGuards(full, labels)

	classes := classesOf(net.Devices, labels)
	q := &Quotient{Full: full, Classes: classes}
	if len(classes) == len(net.Devices) {
		q.Identity = true
		q.Reduced = full
		return q
	}
	if !q.buildReduced() {
		return identityQuotient(full)
	}
	return q
}

// identityQuotient is the always-correct fallback: singleton classes,
// reduced model == full model.
func identityQuotient(full *instance.Model) *Quotient {
	devs := full.Graph.Network.Devices
	q := &Quotient{Full: full, Reduced: full, Identity: true}
	q.Classes = make([]Class, len(devs))
	order := append([]*devmodel.Device(nil), devs...)
	sort.Slice(order, func(i, j int) bool { return order[i].Hostname < order[j].Hostname })
	for i, d := range order {
		q.Classes[i] = Class{Rep: d, Members: []*devmodel.Device{d}}
	}
	return q
}

// hashOf collapses an ordered token list into a stable label.
func hashOf(tokens ...string) string {
	h := sha256.New()
	for _, t := range tokens {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// soloLabel marks a device permanently unmergeable.
func soloLabel(d *devmodel.Device) string { return "solo|" + d.Hostname }

// initialLabels partitions devices by (policy fingerprint, instance
// membership).
func initialLabels(full *instance.Model) map[*devmodel.Device]string {
	labels := make(map[*devmodel.Device]string, len(full.Graph.Network.Devices))
	for _, d := range full.Graph.Network.Devices {
		labels[d] = fingerprint(d, full)
	}
	return labels
}

// fingerprint canonically serializes everything behavior-relevant about
// the device except its identity: hostname, file name, and the host
// part of interface addresses are excluded; interface subnets, the full
// policy configuration, and the instance membership of each process are
// included. Devices the model cannot safely normalize (unnumbered
// interfaces, non-contiguous masks) get a unique label and stay
// singletons.
func fingerprint(d *devmodel.Device, full *instance.Model) string {
	var b strings.Builder
	for _, i := range d.Interfaces {
		if i.Unnumbered {
			return soloLabel(d)
		}
		fmt.Fprintf(&b, "if|%s|%s|%t|%s|%s|%s|%t\n",
			i.Name, i.Description, i.Shutdown,
			i.AccessGroupIn, i.AccessGroupOut, i.Encapsulation, i.PointToPoint)
		for _, a := range i.Addrs {
			if i.Shutdown {
				// Shut interfaces do not originate routes, but their
				// addresses still enter the ownership map; require them
				// byte-identical rather than reasoning about host parts.
				fmt.Fprintf(&b, "sad|%s|%s|%t\n", a.Addr, a.Mask, a.Secondary)
				continue
			}
			p, ok := a.Prefix()
			if !ok {
				return soloLabel(d)
			}
			fmt.Fprintf(&b, "ad|%s|%t\n", p, a.Secondary)
		}
	}
	for _, p := range d.Processes {
		fmt.Fprintf(&b, "pr|%s|%s|%d|%t|%t|%t|%s\n",
			p.Protocol, p.ID, p.ASN, p.PassiveDefault, p.DefaultOriginate,
			p.HasRouterID, p.RouterID)
		if in := full.OfProcess(p); in != nil {
			fmt.Fprintf(&b, "inst|%d\n", in.ID)
		}
		for _, ns := range p.Networks {
			fmt.Fprintf(&b, "nw|%s|%s|%t|%s|%s|%t\n",
				ns.Addr, ns.Wildcard, ns.HasWild, ns.Area, ns.Mask, ns.HasMask)
		}
		for _, rd := range p.Redistributions {
			fmt.Fprintf(&b, "rd|%s|%s|%s|%s|%t|%s\n",
				rd.From, rd.FromID, rd.RouteMap, rd.Metric, rd.Subnets, rd.MetricTyp)
		}
		for _, nb := range p.Neighbors {
			fmt.Fprintf(&b, "nb|%s|%d|%s|%s|%s|%s|%s|%s|%s|%s|%t|%s|%t\n",
				nb.Addr, nb.RemoteAS, nb.Description,
				nb.RouteMapIn, nb.RouteMapOut,
				nb.DistributeListIn, nb.DistributeListOut,
				nb.PrefixListIn, nb.PrefixListOut,
				nb.UpdateSource, nb.RouteReflectorClient, nb.PeerGroup, nb.IsPeerGroupName)
		}
		for _, dl := range p.DistributeLists {
			fmt.Fprintf(&b, "dl|%s|%s|%s\n", dl.ACL, dl.Direction, dl.Interface)
		}
		for _, pi := range p.PassiveIntfs {
			fmt.Fprintf(&b, "pi|%s\n", pi)
		}
		// Host addresses may straddle a network statement's wildcard even
		// inside one subnet; record the actual coverage decision per
		// interface address so such devices never merge.
		for _, i := range d.Interfaces {
			for _, a := range i.Addrs {
				fmt.Fprintf(&b, "cov|%t\n", p.CoversAddr(a.Addr))
			}
		}
	}
	for _, sr := range d.Statics {
		fmt.Fprintf(&b, "st|%s|%s|%t|%s|%d\n",
			sr.Prefix, sr.NextHop, sr.HasHop, sr.ExitIntf, sr.Distance)
	}
	for _, name := range sortedKeys(d.AccessLists) {
		acl := d.AccessLists[name]
		fmt.Fprintf(&b, "acl|%s|%t\n", acl.Name, acl.Extended)
		for _, c := range acl.Clauses {
			fmt.Fprintf(&b, "cl|%d|%s|%t|%s|%s|%t|%t|%s|%s|%t|%s|%v|%s|%v|%t\n",
				c.Action, c.Proto, c.SrcAny, c.Src, c.SrcWildcard, c.SrcHost,
				c.DstAny, c.Dst, c.DstWildcard, c.DstHost,
				c.SrcPortOp, c.SrcPorts, c.DstPortOp, c.DstPorts, c.Log)
		}
	}
	for _, name := range sortedKeys(d.RouteMaps) {
		rm := d.RouteMaps[name]
		fmt.Fprintf(&b, "rm|%s\n", rm.Name)
		for _, e := range rm.Entries {
			fmt.Fprintf(&b, "rme|%d|%d|%v|%v|%v|%s|%s|%s|%v\n",
				e.Action, e.Sequence, e.MatchACLs, e.MatchTags, e.MatchPrefixLists,
				e.SetTag, e.SetMetric, e.SetLocalPref, e.SetCommunity)
		}
	}
	for _, name := range sortedKeys(d.PrefixLists) {
		pl := d.PrefixLists[name]
		fmt.Fprintf(&b, "pl|%s\n", pl.Name)
		for _, e := range pl.Entries {
			fmt.Fprintf(&b, "ple|%d|%d|%s|%d|%d\n", e.Action, e.Seq, e.Prefix, e.Ge, e.Le)
		}
	}
	return hashOf("fp", b.String())
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// halfEdge is one device's view of an incident inter-device
// process-graph edge: the interned static annotation plus the neighbor
// device whose class label completes the token each refinement round.
type halfEdge struct {
	pre uint32
	nb  *devmodel.Device // nil for edges to/from external nodes
}

func nodeTag(n *procgraph.Node) string {
	if n.Proc != nil {
		return n.Kind.String() + ":" + n.Proc.Key()
	}
	return n.Kind.String()
}

// annKey is the behavior-relevant annotation of one directed half-edge.
// Every variable-length component (node tags, policy names) is interned
// to a small integer first, so the key is fixed-size and hashes without
// touching string bytes — refinement indexes a couple hundred thousand
// half-edges at provider scale, and string-keyed interning was the
// dominant build cost.
type annKey struct {
	dir      byte // 'o'/'i' internal, 'O'/'I' to/from an external node
	kind     procgraph.EdgeKind
	ebgp     bool
	link     netaddr.Prefix
	routeMap uint32 // interned e.RouteMap (0 for none)
	dls      uint32 // interned ","-joined DistributeLists (0 for none)
	from, to uint32 // interned node tags; the external node's interned ID for 'O'/'I'
}

// incidentEdges indexes, per device, the annotated halves of every
// inter-device edge touching it, with annotations interned to small
// integers.
func incidentEdges(g *procgraph.Graph) map[*devmodel.Device][]halfEdge {
	inc := make(map[*devmodel.Device][]halfEdge)
	interned := make(map[annKey]uint32)
	intern := func(k annKey) uint32 {
		id, ok := interned[k]
		if !ok {
			id = uint32(len(interned))
			interned[k] = id
		}
		return id
	}
	strs := map[string]uint32{"": 0}
	strID := func(s string) uint32 {
		id, ok := strs[s]
		if !ok {
			id = uint32(len(strs))
			strs[s] = id
		}
		return id
	}
	tags := make(map[*procgraph.Node]uint32)
	tag := func(n *procgraph.Node) uint32 {
		t, ok := tags[n]
		if !ok {
			t = strID(nodeTag(n))
			tags[n] = t
		}
		return t
	}
	for _, e := range g.Edges {
		fd, td := e.From.Device, e.To.Device
		if fd == td {
			continue // intra-device: already captured by the fingerprint
		}
		k := annKey{
			kind: e.Kind, ebgp: e.EBGP, link: e.Link,
			from: tag(e.From), to: tag(e.To),
		}
		if e.RouteMap != "" {
			k.routeMap = strID(e.RouteMap)
		}
		if len(e.DistributeLists) > 0 {
			k.dls = strID(strings.Join(e.DistributeLists, ","))
		}
		switch {
		case fd != nil && td != nil:
			k.dir = 'o'
			inc[fd] = append(inc[fd], halfEdge{pre: intern(k), nb: td})
			k.dir = 'i'
			inc[td] = append(inc[td], halfEdge{pre: intern(k), nb: fd})
		case td == nil:
			k.dir, k.to = 'O', strID(e.To.ID())
			inc[fd] = append(inc[fd], halfEdge{pre: intern(k)})
		default:
			k.dir, k.from = 'I', strID(e.From.ID())
			inc[td] = append(inc[td], halfEdge{pre: intern(k)})
		}
	}
	return inc
}

// refine iterates adjacency-signature partition refinement to a
// fixpoint: each round relabels every device with (old label, sorted
// multiset of incident edge annotations completed with the neighbor's
// label). The partition only ever splits, so the distinct-label count
// is monotone and the loop terminates within len(devs) rounds.
//
// Internally labels are dense integers and a round token is one uint64
// (annotation id in the high half, neighbor label in the low half);
// rounds sort integers and intern binary signatures instead of hashing
// strings, which is what makes a 10k-router build subsecond. The final
// integer labels are written back as strings ("q|N") because the guard
// pass mixes them with soloLabel sentinels.
func refine(g *procgraph.Graph, devs []*devmodel.Device, labels map[*devmodel.Device]string) {
	inc := incidentEdges(g)

	// Intern the fingerprint labels in deterministic device order.
	lab := make(map[*devmodel.Device]uint32, len(devs))
	byFp := make(map[string]uint32)
	for _, d := range devs {
		id, ok := byFp[labels[d]]
		if !ok {
			id = uint32(len(byFp))
			byFp[labels[d]] = id
		}
		lab[d] = id
	}

	// A token's low half holds the neighbor's current label, or this
	// sentinel for external half-edges (labels are dense and far below
	// it).
	const extLabel = uint64(^uint32(0))

	for prev := len(byFp); ; {
		sig := make(map[string]uint32, prev)
		next := make(map[*devmodel.Device]uint32, len(devs))
		var toks []uint64
		var key []byte
		for _, d := range devs {
			toks = toks[:0]
			for _, h := range inc[d] {
				t := uint64(h.pre) << 32
				if h.nb != nil {
					t |= uint64(lab[h.nb])
				} else {
					t |= extLabel
				}
				toks = append(toks, t)
			}
			sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
			key = binary.BigEndian.AppendUint32(key[:0], lab[d])
			for _, t := range toks {
				key = binary.BigEndian.AppendUint64(key, t)
			}
			id, ok := sig[string(key)]
			if !ok {
				id = uint32(len(sig))
				sig[string(key)] = id
			}
			next[d] = id
		}
		lab = next
		cur := len(sig)
		if cur == prev {
			break
		}
		prev = cur
	}
	for _, d := range devs {
		labels[d] = "q|" + strconv.Itoa(int(lab[d]))
	}
}

// applyGuards splits every class whose collapse could change an answer,
// making each member a singleton. Splitting one class never creates a
// violation in another, so a single pass over each guard suffices.
func applyGuards(full *instance.Model, labels map[*devmodel.Device]string) {
	classOf := func() map[string][]*devmodel.Device {
		m := make(map[string][]*devmodel.Device)
		for _, d := range full.Graph.Network.Devices {
			m[labels[d]] = append(m[labels[d]], d)
		}
		return m
	}
	split := func(members []*devmodel.Device) {
		for _, m := range members {
			labels[m] = soloLabel(m)
		}
	}

	// Guard 1 — referenced-address ownership. Every address any device
	// uses as a BGP neighbor or static next hop must keep its owner in
	// the reduced model; otherwise link classification (the foreign
	// next-hop rule) and BGP session resolution would diverge from the
	// full model. Splitting the owning class keeps the owner.
	classes := classOf()
	top := full.Graph.Topology
	splitOwner := func(owner *devmodel.Device) {
		if ms := classes[labels[owner]]; len(ms) > 1 {
			split(ms)
		}
	}
	for _, d := range full.Graph.Network.Devices {
		for _, sr := range d.Statics {
			if sr.HasHop {
				if owner, ok := top.AddrOwner(sr.NextHop); ok {
					splitOwner(owner)
				}
			}
		}
		for _, p := range d.Processes {
			if p.Protocol != devmodel.ProtoBGP {
				continue
			}
			for _, nb := range p.Neighbors {
				if nb.IsPeerGroupName {
					continue
				}
				if owner, ok := top.AddrOwner(nb.Addr); ok {
					splitOwner(owner)
				}
			}
		}
	}

	// Guard 2 — instance containment. An instance whose devices all lie
	// in one multi-member class would lose its internal structure (and
	// possibly its size->=2 status) in the reduced model.
	classes = classOf()
	for _, in := range full.Instances {
		if len(in.Devices) == 0 {
			continue
		}
		l := labels[in.Devices[0]]
		if len(classes[l]) < 2 {
			continue
		}
		contained := true
		for _, d := range in.Devices {
			if labels[d] != l {
				contained = false
				break
			}
		}
		if contained {
			split(classes[l])
		}
	}

	// Guard 3 — intra-class cliques. Within every shared instance the
	// members of a class must be pairwise adjacent; then collapsing the
	// class is a clique contraction, which preserves articulation
	// points, bridges, and piece counts for the surviving vertices.
	type pairKey struct {
		inst int
		a, b *devmodel.Device
	}
	adj := make(map[pairKey]bool)
	for _, e := range full.Graph.Edges {
		if e.Kind != procgraph.Adjacency ||
			e.From.Kind != procgraph.ProcRIB || e.To.Kind != procgraph.ProcRIB {
			continue
		}
		fi, ti := full.Of(e.From), full.Of(e.To)
		if fi == nil || fi != ti || e.From.Device == e.To.Device {
			continue
		}
		a, b := e.From.Device, e.To.Device
		if b.Hostname < a.Hostname {
			a, b = b, a
		}
		adj[pairKey{fi.ID, a, b}] = true
	}
	classes = classOf()
	for _, ms := range classes {
		if len(ms) < 2 {
			continue
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].Hostname < ms[j].Hostname })
		// Members share the fingerprint, hence the same instance
		// membership; enumerate instances through the first member.
		insts := make(map[*instance.Instance]bool)
		for _, p := range ms[0].Processes {
			if in := full.OfProcess(p); in != nil {
				insts[in] = true
			}
		}
		ok := true
	check:
		for in := range insts {
			for i := 0; i < len(ms) && ok; i++ {
				for j := i + 1; j < len(ms); j++ {
					if !adj[pairKey{in.ID, ms[i], ms[j]}] {
						ok = false
						break check
					}
				}
			}
		}
		if !ok {
			split(ms)
		}
	}
}

// classesOf groups devices by final label into classes sorted by
// representative hostname.
func classesOf(devs []*devmodel.Device, labels map[*devmodel.Device]string) []Class {
	byLabel := make(map[string][]*devmodel.Device)
	for _, d := range devs {
		byLabel[labels[d]] = append(byLabel[labels[d]], d)
	}
	classes := make([]Class, 0, len(byLabel))
	for _, ms := range byLabel {
		sort.Slice(ms, func(i, j int) bool { return ms[i].Hostname < ms[j].Hostname })
		classes = append(classes, Class{Rep: ms[0], Members: ms})
	}
	sort.Slice(classes, func(i, j int) bool {
		return classes[i].Rep.Hostname < classes[j].Rep.Hostname
	})
	return classes
}

// buildReduced constructs the reduced network from the class
// representatives, reruns the topology/procgraph/instance pipeline over
// it, and verifies that the reduced instance structure corresponds 1:1
// to the full model's. It reports false when verification fails — the
// caller then falls back to the identity quotient.
func (q *Quotient) buildReduced() bool {
	reps := make([]*devmodel.Device, len(q.Classes))
	q.members = make(map[*devmodel.Device][]*devmodel.Device, len(q.Classes))
	q.devAlias = make(map[*devmodel.Device]*devmodel.Device)
	q.procAlias = make(map[*devmodel.RoutingProcess]*devmodel.RoutingProcess)
	for i, c := range q.Classes {
		reps[i] = c.Rep
		q.members[c.Rep] = c.Members
		for _, m := range c.Members {
			if m == c.Rep {
				continue
			}
			if len(m.Processes) != len(c.Rep.Processes) {
				return false
			}
			q.devAlias[m] = c.Rep
			for pi, p := range m.Processes {
				q.procAlias[p] = c.Rep.Processes[pi]
			}
		}
	}

	full := q.Full
	rnet := &devmodel.Network{Name: full.Graph.Network.Name, Devices: reps}
	rnet.SortDevices()
	rtop := topology.Build(rnet)
	rgraph := procgraph.Build(rnet, rtop)
	reduced := instance.Compute(rgraph)

	// Verification 1: the reduced and full models see the same external
	// world (same (addr, AS) peer set).
	fullExt := make(map[string]bool)
	for _, n := range full.Graph.ExternalNodes() {
		fullExt[n.ID()] = true
	}
	redExt := full.Graph.ExternalNodes()[:0:0]
	_ = redExt
	count := 0
	for _, n := range rgraph.ExternalNodes() {
		if !fullExt[n.ID()] {
			return false
		}
		count++
	}
	if count != len(fullExt) {
		return false
	}

	// Verification 2: instances correspond 1:1 — same protocol and ASN,
	// and expanding a reduced instance's devices through their classes
	// reproduces exactly the full instance's device set.
	if len(reduced.Instances) != len(full.Instances) {
		return false
	}
	q.instFull = make(map[*instance.Instance]*instance.Instance, len(reduced.Instances))
	seen := make(map[*instance.Instance]bool, len(full.Instances))
	for _, ri := range reduced.Instances {
		if len(ri.Nodes) == 0 {
			return false
		}
		fi := full.OfProcess(ri.Nodes[0].Proc)
		if fi == nil || seen[fi] || fi.Protocol != ri.Protocol || fi.ASN != ri.ASN {
			return false
		}
		for _, n := range ri.Nodes {
			if full.OfProcess(n.Proc) != fi {
				return false
			}
		}
		expanded := make(map[*devmodel.Device]bool)
		for _, d := range ri.Devices {
			for _, m := range q.Members(d) {
				expanded[m] = true
			}
		}
		if len(expanded) != len(fi.Devices) {
			return false
		}
		for _, d := range fi.Devices {
			if !expanded[d] {
				return false
			}
		}
		seen[fi] = true
		q.instFull[ri] = fi
	}

	q.Reduced = reduced
	return true
}
