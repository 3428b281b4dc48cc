package compress

import (
	"routinglens/internal/addrspace"
	"routinglens/internal/reach"
	"routinglens/internal/simroute"
	"routinglens/internal/whatif"
)

// Sim runs the control-plane simulation on the reduced graph and
// installs query aliases so device- and process-keyed lookups for any
// full-model router answer from its class representative's tables. The
// returned sim serves full-model queries byte-identically to a
// simulation of the full graph.
func (q *Quotient) Sim(external []simroute.ExternalRoute) *simroute.Sim {
	sim := simroute.New(q.Reduced.Graph, external)
	if !q.Identity {
		sim.SetAliases(q.devAlias, q.procAlias)
	}
	sim.Run()
	return sim
}

// Reach prepares the reachability analysis: the simulation runs on the
// reduced graph, while every query surface (device walks, policy table,
// IGP load) iterates the full model and resolves through the aliases.
func (q *Quotient) Reach(space *addrspace.Structure, external []simroute.ExternalRoute) *reach.Analysis {
	if q.Identity {
		return reach.Analyze(q.Full, space, external, nil)
	}
	return reach.AnalyzeReduced(q.Full, q.Sim(external), space)
}

// Whatif computes the survivability report by running the graph
// algorithms on the reduced instance model and expanding the findings
// back to concrete routers.
func (q *Quotient) Whatif() *whatif.Analysis {
	if q.Identity {
		return whatif.Analyze(q.Full)
	}
	return whatif.AnalyzeExpanded(q.Reduced, whatif.Expansion{
		FullNetwork:  q.Full.Graph.Network,
		FullInstance: q.FullInstance,
		Members:      q.Members,
	})
}
