// Package reach implements the paper's reachability analysis (Section 6.2
// and [27]): using the routing instance model and the control-plane
// simulator, it determines which destinations each part of the network can
// reach, which routes policies admit from and announce to the outside
// world, and how ingress filters bound the load on IGP processes.
//
// This is the "middle ground" the paper describes: it avoids modeling
// vendor route selection in detail while still answering the questions that
// matter — can hosts reach the Internet at large, can the two halves of a
// network reach each other, and where is reachability cut off by policy.
package reach

import (
	"sort"

	"routinglens/internal/addrspace"
	"routinglens/internal/devmodel"
	"routinglens/internal/instance"
	"routinglens/internal/netaddr"
	"routinglens/internal/simroute"
)

// Analysis bundles the models needed for reachability queries, plus the
// two network-wide views (HasDefaultRoute, AdmittedExternalRoutes),
// computed when the Analysis is built: they walk every device through
// the simulator, which on a large network costs far more than any
// single query, and the underlying models never change after Analyze.
type Analysis struct {
	Model *instance.Model
	Sim   *simroute.Sim
	Space *addrspace.Structure
	// Simulated is how many of the simulation's prefixes Analyze's run
	// moved: all of them unless it reused an earlier analysis.
	// AnalyzeReduced, handed a simulation that already ran, leaves it 0.
	Simulated int
	// Rounds is how many propagation rounds Analyze's run took. A run
	// that reused an earlier analysis counts only the rounds of the
	// prefixes it moved. AnalyzeReduced leaves it 0.
	Rounds int

	def bool
	ext []netaddr.Prefix
}

// Analyze runs the control-plane simulation with the given external route
// injections and prepares reachability queries. prev, when not nil, is an
// earlier analysis of the same network, such as the generation a reload
// replaces: the simulation copies prev's fixpoint for every prefix whose
// origination is unchanged and runs only the rest (simroute.Sim.Reuse).
// nil runs in full.
func Analyze(m *instance.Model, space *addrspace.Structure, external []simroute.ExternalRoute, prev *Analysis) *Analysis {
	sim := simroute.New(m.Graph, external)
	var prevSim *simroute.Sim
	if prev != nil {
		prevSim = prev.Sim
	}
	simulated := sim.Reuse(prevSim)
	rounds := sim.Run()
	a := AnalyzeReduced(m, sim, space)
	a.Simulated, a.Rounds = simulated, rounds
	return a
}

// AnalyzeReduced prepares reachability queries for the full model from a
// simulation that already ran: Analyze's own, or one over a compressed
// (quotient) graph carrying query aliases that map collapsed devices and
// processes onto their class representatives (internal/compress sets
// both up). The device walks below then iterate the full device list
// while every RIB lookup lands on a representative's table. Policy and
// instance views read the full model directly.
func AnalyzeReduced(full *instance.Model, sim *simroute.Sim, space *addrspace.Structure) *Analysis {
	a := &Analysis{Model: full, Sim: sim, Space: space}
	def := netaddr.PrefixFrom(0, 0)
	seen := make(map[netaddr.Prefix]bool)
	for _, d := range full.Graph.Network.Devices {
		// Under a quotient an aliased device answers from its
		// representative's table, which the representative's own visit
		// already covers.
		if sim.Canonical(d) != d {
			continue
		}
		a.def = a.def || sim.HasRoute(d, def)
		for _, p := range sim.ExternalRoutesAt(d) {
			if !seen[p] {
				seen[p] = true
				a.ext = append(a.ext, p)
			}
		}
	}
	sort.Slice(a.ext, func(i, j int) bool { return a.ext[i].Less(a.ext[j]) })
	return a
}

// PolicyRow is one row of the paper's Table 2: a policy (ACL or route-map)
// applied to inter-instance route exchange, and the address blocks its
// permit clauses mention.
type PolicyRow struct {
	Name   string
	Device *devmodel.Device
	Blocks []netaddr.Prefix
}

// PolicyTable collects, for every policy annotating an instance-graph edge,
// the address blocks it mentions (aggregated to top-level blocks of the
// address-space structure where possible).
func (a *Analysis) PolicyTable() []PolicyRow {
	type key struct {
		dev  *devmodel.Device
		name string
	}
	seen := make(map[key]bool)
	var rows []PolicyRow
	for _, e := range a.Model.Edges {
		for _, pe := range e.Via {
			dev := pe.To.Device
			if dev == nil {
				dev = pe.From.Device
			}
			if dev == nil {
				continue
			}
			names := append([]string{}, pe.DistributeLists...)
			if pe.RouteMap != "" {
				names = append(names, pe.RouteMap)
			}
			for _, name := range names {
				k := key{dev, name}
				if seen[k] {
					continue
				}
				seen[k] = true
				blocks := a.policyBlocks(dev, name)
				rows = append(rows, PolicyRow{Name: name, Device: dev, Blocks: blocks})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Device.Hostname != rows[j].Device.Hostname {
			return rows[i].Device.Hostname < rows[j].Device.Hostname
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// policyBlocks resolves the permitted address space of a named policy on a
// device, aggregated to top-level address blocks where the block is fully
// mentioned.
func (a *Analysis) policyBlocks(dev *devmodel.Device, name string) []netaddr.Prefix {
	var prefixes []netaddr.Prefix
	if acl, ok := dev.AccessLists[name]; ok {
		prefixes = acl.PermittedSpace()
	} else if rm, ok := dev.RouteMaps[name]; ok {
		for _, ent := range rm.Entries {
			if ent.Action != devmodel.ActionPermit {
				continue
			}
			for _, aclName := range ent.MatchACLs {
				if acl, ok := dev.AccessLists[aclName]; ok {
					prefixes = append(prefixes, acl.PermittedSpace()...)
				}
			}
			for _, plName := range ent.MatchPrefixLists {
				if pl, ok := dev.PrefixLists[plName]; ok {
					for _, pe := range pl.Entries {
						if pe.Action == devmodel.ActionPermit {
							prefixes = append(prefixes, pe.Prefix)
						}
					}
				}
			}
		}
	}
	// Aggregate to blocks: replace a prefix by its containing top-level
	// block when one exists.
	seen := make(map[netaddr.Prefix]bool)
	var out []netaddr.Prefix
	for _, p := range prefixes {
		blk := p
		if root := a.Space.RootOf(p.Addr()); root != nil && root.Prefix.ContainsPrefix(p) {
			blk = root.Prefix
		}
		if !seen[blk] {
			seen[blk] = true
			out = append(out, blk)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// BlockReachesBlock reports whether hosts in the src block can reach hosts
// in the dst block: some router with an interface in src must hold a route
// covering dst. (Following the paper, this is control-plane reachability;
// packet filters are analyzed separately.)
func (a *Analysis) BlockReachesBlock(src, dst netaddr.Prefix) bool {
	dstProbe := netaddr.Addr(uint32(dst.First()) + 1)
	if dst.Bits() == 32 {
		dstProbe = dst.First()
	}
	for _, d := range a.Model.Graph.Network.Devices {
		attached := false
		for _, i := range d.Interfaces {
			for _, ia := range i.Addrs {
				if src.Contains(ia.Addr) {
					attached = true
				}
			}
		}
		if attached && a.Sim.CanReach(d, dstProbe) {
			return true
		}
	}
	return false
}

// HasDefaultRoute reports whether any router in the network learned a
// default route (0.0.0.0/0) — the precondition for "reachability to the
// Internet at large".
func (a *Analysis) HasDefaultRoute() bool { return a.def }

// AdmittedExternalRoutes returns the external-origin prefixes that made it
// into any router RIB — the routes the network's ingress policies allowed
// in. Callers get their own copy; the Analysis is shared across
// concurrent queries.
func (a *Analysis) AdmittedExternalRoutes() []netaddr.Prefix {
	return append([]netaddr.Prefix(nil), a.ext...)
}

// AnnouncedRoutes returns the prefixes announced to each external AS.
func (a *Analysis) AnnouncedRoutes() map[uint32][]netaddr.Prefix {
	out := make(map[uint32][]netaddr.Prefix)
	// Iterate the sim's own graph: under a quotient the sim holds the
	// reduced graph's external nodes (the peer set is verified identical
	// to the full model's); in the ordinary case the graphs coincide.
	for _, ext := range a.Sim.Graph.ExternalNodes() {
		ann := a.Sim.AnnouncedToExternal(ext)
		out[ext.ExtAS] = append(out[ext.ExtAS], ann...)
	}
	for as := range out {
		ps := out[as]
		sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
		out[as] = dedupePrefixes(ps)
	}
	return out
}

func dedupePrefixes(ps []netaddr.Prefix) []netaddr.Prefix {
	var out []netaddr.Prefix
	for i, p := range ps {
		if i == 0 || ps[i-1] != p {
			out = append(out, p)
		}
	}
	return out
}

// IGPLoad estimates the maximum number of routes any process of the IGP
// instance must carry — the paper's scalability prediction: ingress filters
// bound the external routes injected, and the instance's internal subnets
// add the rest.
func (a *Analysis) IGPLoad(in *instance.Instance) int {
	max := 0
	for _, node := range in.Nodes {
		n := len(a.Sim.ProcRoutes(node.Proc))
		if n > max {
			max = n
		}
	}
	return max
}

// Partitioned reports whether no router attached to block src holds any
// route into dst AND vice versa — the paper's "two sites cannot reach each
// other at all" finding for net15.
func (a *Analysis) Partitioned(x, y netaddr.Prefix) bool {
	return !a.BlockReachesBlock(x, y) && !a.BlockReachesBlock(y, x)
}
