package simroute

import (
	"fmt"
	"slices"

	"routinglens/internal/procgraph"
)

// RunShards is Run in n shards, or one per logged prefix when fewer,
// with the size floor lifted.
func (s *Sim) RunShards(n int) int { return s.run(s.moved(), n) }

// BreakFlowFrom points the first flow leaving node at a RIB index past
// the last, so every shard that moves a route over it panics.
func (s *Sim) BreakFlowFrom(node *procgraph.Node) {
	for i := range s.flows {
		if s.flows[i].from == s.nodeIdx[node] {
			s.flows[i].to = int32(len(s.ribs))
			return
		}
	}
	panic("no flow leaves " + node.ID())
}

// FixpointDiff lists the first limit ways got's fixpoint differs from
// want's, two simulations of one graph: every flow-target slot by label
// content and provenance, every local RIB, and every RIB's set of
// external-origin prefixes. Attributes are compared through the two
// interners' label sets, each pair of IDs once.
func FixpointDiff(got, want *Sim, limit int) []string {
	var out []string
	report := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	match := make([]attrID, len(got.labels.sets)) // got's ID to want's equal one, once met
	same := func(g, w attrID) bool {
		if g == 0 || w == 0 {
			return g == w
		}
		if m := match[g]; m != 0 {
			return m == w
		}
		gs, ws := got.labels.sets[g], want.labels.sets[w]
		if !slices.Equal(gs.tags, ws.tags) || !slices.Equal(gs.origins, ws.origins) {
			return false
		}
		match[g] = w
		return true
	}
	labels := func(s *Sim, a attrID) string {
		return fmt.Sprintf("tags %v origins %v", s.labels.sets[a].tags, s.labels.sets[a].origins)
	}
	for i := 0; i < len(want.ribs) && len(out) < limit; i++ {
		g, w := &got.ribs[i], &want.ribs[i]
		node := want.Graph.Nodes[i].ID()
		for pid, ws := range w.slots {
			if gs := g.slots[pid]; (gs.from != ws.from || !same(gs.attr, ws.attr)) && len(out) < limit {
				report("%s %s: got %s from %d, want %s from %d", node, want.prefixes[pid],
					labels(got, gs.attr), gs.from, labels(want, ws.attr), ws.from)
			}
		}
		if len(g.local) != len(w.local) {
			report("%s: local RIB holds %d routes, want %d", node, len(g.local), len(w.local))
		} else {
			for j, wr := range w.local {
				if gr := g.local[j]; gr.pid != wr.pid || !same(gr.attr, wr.attr) {
					report("%s: local route %d is %s %s, want %s %s", node, j,
						got.prefixes[gr.pid], labels(got, gr.attr), want.prefixes[wr.pid], labels(want, wr.attr))
				}
			}
		}
		gx, wx := slices.Clone(g.ext), slices.Clone(w.ext)
		slices.Sort(gx)
		slices.Sort(wx)
		if !slices.Equal(gx, wx) {
			report("%s: external-origin prefixes %v, want %v", node, gx, wx)
		}
	}
	return out[:min(len(out), limit)]
}
