package simroute

import (
	"cmp"
	"reflect"
	"slices"
	"strings"

	"routinglens/internal/devmodel"
	"routinglens/internal/procgraph"
)

// Reuse copies into s, which New has built and Run has not yet moved, the
// fixpoint prev reached for every prefix whose origination is unchanged,
// and trims s's worklists to the other prefixes. It returns how many
// prefixes Run will move: all of them when prev is nil or does not move
// routes the way s does.
//
// prev must have run. It moves routes the way s does when both were
// given the same external routes, their graphs have equal nodes in the
// same order (kind, hostname, process key, external peer address and AS),
// and their flows are equal in order (endpoints, edge kind, route-map
// name and distribute lists) under equal policies: the ACLs, route-maps
// and prefix-lists of each flow's policy device, compared by content
// where the two devices are different pointers. A prefix's origination
// is unchanged when it has the same multiset of (node, label) origination
// events in both.
//
// The copy is exact because the fixpoint factorizes by prefix: a flow
// moves each logged prefix on its own, and its policy reads only that
// prefix and its own labels, so a prefix's path through the edge order
// and rounds depends only on its origination and the flows. Node indices,
// and with them LearnedFrom, carry over because the nodes are equal. The
// copied slots land in s's own arrays, with prefix and attribute IDs
// remapped and label strings cloned, so s keeps no reference into prev.
// prev is only read, so it may serve queries meanwhile. Run's round count
// then covers only the prefixes it moves.
func (s *Sim) Reuse(prev *Sim) int {
	if prev == nil || !slices.Equal(s.external, prev.external) || !s.sameFlows(prev) {
		return len(s.prefixes)
	}
	// from maps s's IDs to prev's for the prefixes copied, toS maps them
	// back, and pairs lists them; -1 marks a prefix not copied.
	from := s.unchanged(prev)
	toS := make([]int32, len(prev.prefixes))
	for q := range toS {
		toS[q] = -1
	}
	var pairs [][2]int32
	for pid, q := range from {
		if q >= 0 {
			pairs = append(pairs, [2]int32{int32(pid), q})
			toS[q] = int32(pid)
		}
	}
	isReused := func(pid int32) bool { return from[pid] >= 0 }
	remap := make([]attrID, len(prev.labels.sets)) // prev's ID to s's; 0 until met
	for i := range s.ribs {
		rb := &s.ribs[i]
		rb.log = slices.DeleteFunc(rb.log, isReused)
		if rb.slots == nil {
			continue // a local RIB only originates, so New built all of it
		}
		dst, src := rb.slots, prev.ribs[i].slots
		for _, pq := range pairs {
			sl := src[pq[1]]
			if a := sl.attr; a != 0 {
				if remap[a] == 0 {
					remap[a] = s.labels.clone(prev.labels.sets[a])
				}
				sl.attr = remap[a]
			}
			dst[pq[0]] = sl
		}
		rb.ext = slices.DeleteFunc(rb.ext, isReused)
		for _, q := range prev.ribs[i].ext {
			if pid := toS[q]; pid >= 0 {
				rb.ext = append(rb.ext, pid)
			}
		}
	}
	return len(s.prefixes) - len(pairs)
}

// Prefixes returns how many prefixes the simulation holds: every prefix
// some RIB originates.
func (s *Sim) Prefixes() int { return len(s.prefixes) }

// sameFlows reports whether s and prev move routes the same way: equal
// nodes in the same order, and equal flows in the same order under equal
// policies.
func (s *Sim) sameFlows(prev *Sim) bool {
	if len(s.Graph.Nodes) != len(prev.Graph.Nodes) || len(s.flows) != len(prev.flows) {
		return false
	}
	for i, n := range s.Graph.Nodes {
		if !sameNode(n, prev.Graph.Nodes[i]) {
			return false
		}
	}
	// Unchanged files share their parsed devices, so normally only an
	// edited device's policies are compared, once per device pair.
	same := make(map[[2]*devmodel.Device]bool)
	for i := range s.flows {
		f, g := &s.flows[i], &prev.flows[i]
		if f.from != g.from || f.to != g.to || f.edge.Kind != g.edge.Kind ||
			f.edge.RouteMap != g.edge.RouteMap || !slices.Equal(f.edge.DistributeLists, g.edge.DistributeLists) {
			return false
		}
		if f.dev == g.dev {
			continue
		}
		key := [2]*devmodel.Device{f.dev, g.dev}
		eq, ok := same[key]
		if !ok {
			eq = samePolicies(f.dev, g.dev)
			same[key] = eq
		}
		if !eq {
			return false
		}
	}
	return true
}

// sameNode reports whether two graph nodes stand for the same RIB: the
// same kind, device hostname, process key and external peer.
func sameNode(a, b *procgraph.Node) bool {
	if a.Kind != b.Kind || a.ExtAddr != b.ExtAddr || a.ExtAS != b.ExtAS ||
		(a.Device == nil) != (b.Device == nil) || (a.Proc == nil) != (b.Proc == nil) {
		return false
	}
	return (a.Device == nil || a.Device.Hostname == b.Device.Hostname) &&
		(a.Proc == nil || a.Proc.Key() == b.Proc.Key())
}

// samePolicies reports whether two devices hold equal ACLs, route-maps
// and prefix-lists: everything a flow's policy can read.
func samePolicies(a, b *devmodel.Device) bool {
	return a != nil && b != nil &&
		reflect.DeepEqual(a.AccessLists, b.AccessLists) &&
		reflect.DeepEqual(a.RouteMaps, b.RouteMaps) &&
		reflect.DeepEqual(a.PrefixLists, b.PrefixLists)
}

// unchanged maps each of s's prefix IDs to prev's ID for the prefix when
// its origination events are the same multiset in both, and to -1 when
// Run must move it.
func (s *Sim) unchanged(prev *Sim) []int32 {
	curStart, cur := s.seeds(s.origins())
	oldStart, old := s.seeds(prev.origins())
	from := make([]int32, len(s.prefixes))
	for pid, p := range s.prefixes {
		from[pid] = -1
		if slices.Equal(cur[curStart[pid]:curStart[pid+1]], old[oldStart[pid]:oldStart[pid+1]]) {
			from[pid] = prev.lookup(p)
		}
	}
	return from
}

// seed is one origination event of a prefix: the node and the label.
type seed struct {
	node  int32
	label string
}

// seeds groups origination events by s's prefix ID, dropping those of
// prefixes s does not hold: prefix pid's events are ev[start[pid]:
// start[pid+1]], sorted by node and label, so two groups are equal
// exactly when their multisets are.
func (s *Sim) seeds(events []origin) (start []int32, ev []seed) {
	pids := make([]int32, len(events))
	start = make([]int32, len(s.prefixes)+1)
	for i, o := range events {
		if pids[i] = s.lookup(o.prefix); pids[i] >= 0 {
			start[pids[i]+1]++
		}
	}
	for pid := range s.prefixes {
		start[pid+1] += start[pid]
	}
	ev = make([]seed, start[len(s.prefixes)])
	next := slices.Clone(start)
	for i, o := range events {
		if pid := pids[i]; pid >= 0 {
			ev[next[pid]] = seed{o.node, o.label}
			next[pid]++
		}
	}
	for pid := range s.prefixes {
		slices.SortFunc(ev[start[pid]:start[pid+1]], func(a, b seed) int {
			return cmp.Or(cmp.Compare(a.node, b.node), strings.Compare(a.label, b.label))
		})
	}
	return start, ev
}

// clone interns a copy of another interner's attributes, label strings
// included, so the copy shares no memory with the original.
func (in *interner) clone(a attrs) attrID {
	copyOf := func(l LabelSet) LabelSet {
		out := make(LabelSet, len(l))
		for i, x := range l {
			out[i] = strings.Clone(x)
		}
		return out
	}
	return in.intern(copyOf(a.tags), copyOf(a.origins))
}
