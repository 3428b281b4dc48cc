package designdiff

// Delta is the structured, JSON-ready form of a Diff: the shape the
// serve layer publishes as design-drift events and streams over
// /v1/nets/<net>/watch. Where Diff holds live *instance.Instance pointers into two
// analysis generations, Delta is self-contained — labels, counts, and
// hostnames only — so an event outlives both generations and can be
// replayed from the ring buffer long after they are gone.
type Delta struct {
	// Empty mirrors Diff.Empty: no observable design change.
	Empty bool `json:"empty"`
	// ClassificationBefore/After are the design classifications; equal
	// unless the edit moved the network between design families.
	ClassificationBefore string `json:"classification_before"`
	ClassificationAfter  string `json:"classification_after"`

	RoutersAdded   []string `json:"routers_added,omitempty"`
	RoutersRemoved []string `json:"routers_removed,omitempty"`

	// Compartments lists every routing compartment (instance) that
	// appeared, disappeared, or changed membership.
	Compartments []CompartmentDelta `json:"compartments,omitempty"`

	EdgesAdded   []EdgeDelta `json:"edges_added,omitempty"`
	EdgesRemoved []EdgeDelta `json:"edges_removed,omitempty"`
}

// CompartmentDelta is one routing compartment's change between two
// snapshots.
type CompartmentDelta struct {
	// Compartment is the instance label ("ospf 1", "BGP AS 65001").
	Compartment string `json:"compartment"`
	// Change is "added", "removed", or "membership".
	Change string `json:"change"`
	// RoutersBefore/After are the member counts on each side (0 on the
	// side the compartment does not exist).
	RoutersBefore int `json:"routers_before"`
	RoutersAfter  int `json:"routers_after"`
	// Joined/Left name the routers that entered or exited a matched
	// compartment (membership changes only).
	Joined []string `json:"joined,omitempty"`
	Left   []string `json:"left,omitempty"`
}

// EdgeDelta is one route-exchange edge present in only one snapshot.
type EdgeDelta struct {
	From string `json:"from"`
	To   string `json:"to"`
	Kind string `json:"kind"`
}

// Compartment change kinds.
const (
	CompartmentAdded      = "added"
	CompartmentRemoved    = "removed"
	CompartmentMembership = "membership"
)

// Delta flattens the Diff into its event-payload form. Ordering is
// deterministic: added, removed, then membership changes, each in the
// Diff's sorted order.
func (d *Diff) Delta() Delta {
	out := Delta{
		Empty:                d.Empty(),
		ClassificationBefore: d.ClassificationBefore.String(),
		ClassificationAfter:  d.ClassificationAfter.String(),
		RoutersAdded:         d.RoutersAdded,
		RoutersRemoved:       d.RoutersRemoved,
	}
	for _, in := range d.InstancesAdded {
		out.Compartments = append(out.Compartments, CompartmentDelta{
			Compartment:  in.Label(),
			Change:       CompartmentAdded,
			RoutersAfter: in.Size(),
		})
	}
	for _, in := range d.InstancesRemoved {
		out.Compartments = append(out.Compartments, CompartmentDelta{
			Compartment:   in.Label(),
			Change:        CompartmentRemoved,
			RoutersBefore: in.Size(),
		})
	}
	for _, c := range d.InstancesChanged {
		out.Compartments = append(out.Compartments, CompartmentDelta{
			Compartment:   c.Before.Label(),
			Change:        CompartmentMembership,
			RoutersBefore: c.Before.Size(),
			RoutersAfter:  c.After.Size(),
			Joined:        c.AddedRouters,
			Left:          c.RemovedRouters,
		})
	}
	for _, e := range d.EdgesAdded {
		out.EdgesAdded = append(out.EdgesAdded, EdgeDelta{From: e.From, To: e.To, Kind: e.Kind})
	}
	for _, e := range d.EdgesRemoved {
		out.EdgesRemoved = append(out.EdgesRemoved, EdgeDelta{From: e.From, To: e.To, Kind: e.Kind})
	}
	return out
}
