// Package trace reconstructs plausible forwarding paths through the
// network from the control-plane simulation — a static traceroute. The
// paper's anomaly-diagnosis workflow (Section 8.1) probes the live network
// with ping and traceroute and then needs the routing design to explain
// the results; this package closes the loop by predicting the path the
// design implies, so an operator can compare prediction against
// observation without touching a router.
//
// Path reconstruction follows route provenance: at each device, the
// longest-prefix-match router-RIB entry identifies the winning routing
// process; the route's provenance chain (who first taught whom) is walked
// until it crosses to another device, which becomes the next hop. Because
// the simulator is set-based, the result is a plausible path under the
// design, not necessarily the unique forwarding path a live network with
// metrics would choose; that caveat is inherent to static analysis and is
// exactly the "middle ground" the paper advocates.
package trace

import (
	"fmt"
	"strings"

	"routinglens/internal/devmodel"
	"routinglens/internal/netaddr"
	"routinglens/internal/procgraph"
	"routinglens/internal/simroute"
)

// HopKind classifies each step of a trace.
type HopKind int

// Hop kinds.
const (
	// HopForward is a normal transit step to another router.
	HopForward HopKind = iota
	// HopDelivered means the device owns the destination subnet.
	HopDelivered
	// HopExternal means the route exits to a peer outside the corpus.
	HopExternal
	// HopBlackhole means no route covers the destination here.
	HopBlackhole
	// HopLoop means the path revisited a device.
	HopLoop
	// HopTruncated means the path exceeded 64 hops (maxHops) without
	// revisiting a device; the trace stops there.
	HopTruncated
)

// String names the hop kind.
func (k HopKind) String() string {
	switch k {
	case HopForward:
		return "forward"
	case HopDelivered:
		return "delivered"
	case HopExternal:
		return "external"
	case HopBlackhole:
		return "blackhole"
	case HopLoop:
		return "loop"
	case HopTruncated:
		return "truncated"
	}
	return "?"
}

// Hop is one step of a reconstructed path.
type Hop struct {
	Device *devmodel.Device
	Kind   HopKind
	// Prefix is the matched router-RIB entry ("" for blackholes).
	Prefix netaddr.Prefix
	// Proto is the protocol that supplied the winning route.
	Proto devmodel.Protocol
}

// Path is the reconstructed forwarding path.
type Path struct {
	Dest netaddr.Addr
	Hops []Hop
}

// Outcome is the kind of the final hop.
func (p *Path) Outcome() HopKind {
	if len(p.Hops) == 0 {
		return HopBlackhole
	}
	return p.Hops[len(p.Hops)-1].Kind
}

// String renders the path like a traceroute transcript.
func (p *Path) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace to %s\n", p.Dest)
	for i, h := range p.Hops {
		detail := ""
		if h.Kind != HopBlackhole {
			detail = fmt.Sprintf(" via %s (%s)", h.Prefix, h.Proto)
		}
		fmt.Fprintf(&b, "%3d  %-16s %s%s\n", i+1, h.Device.Hostname, h.Kind, detail)
	}
	return b.String()
}

// Tracer reconstructs paths over a completed simulation.
type Tracer struct {
	sim *simroute.Sim
	g   *procgraph.Graph
}

// New builds a Tracer from a simulation that has already Run.
func New(sim *simroute.Sim) *Tracer {
	return &Tracer{sim: sim, g: sim.Graph}
}

// maxHops bounds path reconstruction; real networks rarely exceed 30. A
// longer path ends in a HopTruncated hop.
const maxHops = 64

// Trace reconstructs the path from the named source router toward the
// destination address.
func (t *Tracer) Trace(srcHostname string, dest netaddr.Addr) (*Path, error) {
	d := t.g.Network.Device(srcHostname)
	if d == nil {
		return nil, fmt.Errorf("trace: router %q not in network", srcHostname)
	}
	path := &Path{Dest: dest}
	visited := make(map[*devmodel.Device]bool)
	cur := d
	for hops := 0; hops < maxHops; hops++ {
		if visited[cur] {
			path.Hops = append(path.Hops, Hop{Device: cur, Kind: HopLoop})
			return path, nil
		}
		visited[cur] = true

		sel, pfx, ok := t.sim.SelectedAt(cur, dest)
		if !ok {
			path.Hops = append(path.Hops, Hop{Device: cur, Kind: HopBlackhole})
			return path, nil
		}

		// Delivered locally?
		if t.ownsAddr(cur, dest) || (sel.Proto == devmodel.ProtoConnected && t.onSubnet(cur, pfx)) {
			path.Hops = append(path.Hops, Hop{Device: cur, Kind: HopDelivered, Prefix: pfx, Proto: sel.Proto})
			return path, nil
		}

		next, external := t.nextHop(cur, sel, pfx)
		switch {
		case external:
			path.Hops = append(path.Hops, Hop{Device: cur, Kind: HopExternal, Prefix: pfx, Proto: sel.Proto})
			return path, nil
		case next == nil || next == cur:
			// Provenance dead-ends on this device (it originated the
			// route): deliver here.
			path.Hops = append(path.Hops, Hop{Device: cur, Kind: HopDelivered, Prefix: pfx, Proto: sel.Proto})
			return path, nil
		default:
			path.Hops = append(path.Hops, Hop{Device: cur, Kind: HopForward, Prefix: pfx, Proto: sel.Proto})
			cur = next
		}
	}
	path.Hops = append(path.Hops, Hop{Device: cur, Kind: HopTruncated})
	return path, nil
}

// ownsAddr reports whether the device has dest configured on an interface
// or carries a connected subnet containing it.
func (t *Tracer) ownsAddr(d *devmodel.Device, dest netaddr.Addr) bool {
	for _, i := range d.Interfaces {
		for _, a := range i.Addrs {
			if a.Addr == dest {
				return true
			}
		}
	}
	return false
}

// onSubnet reports whether the device has an interface in the prefix.
func (t *Tracer) onSubnet(d *devmodel.Device, p netaddr.Prefix) bool {
	for _, i := range d.Interfaces {
		for _, a := range i.Addrs {
			if p.Contains(a.Addr) {
				return true
			}
		}
	}
	return false
}

// nextHop resolves the next device along the path: follow the winning
// route's provenance chain within the current device until it crosses to
// another device (adjacency) or leaves the corpus (external peer). Static
// routes resolve through their configured next-hop address.
func (t *Tracer) nextHop(cur *devmodel.Device, sel simroute.Selected, pfx netaddr.Prefix) (*devmodel.Device, bool) {
	// Static route: resolve the configured next hop directly.
	if sel.Proto == devmodel.ProtoStatic {
		for _, sr := range cur.Statics {
			if sr.Prefix == pfx && sr.HasHop {
				if owner, ok := t.g.Topology.AddrOwner(sr.NextHop); ok {
					return owner, false
				}
				return nil, true // next hop outside the corpus
			}
		}
		return nil, false
	}

	// Find the winning process node on this device.
	var node *procgraph.Node
	if sel.Proto == devmodel.ProtoConnected {
		node = t.g.LocalNode(cur)
	} else {
		for _, p := range cur.Processes {
			if p.Protocol != sel.Proto {
				continue
			}
			if t.sim.LearnedFrom(t.g.ProcNode(p), pfx) != nil || t.hasRoute(t.g.ProcNode(p), pfx) {
				node = t.g.ProcNode(p)
				break
			}
		}
	}
	// Walk provenance until we leave this device.
	for steps := 0; node != nil && steps < 32; steps++ {
		prev := t.sim.LearnedFrom(node, pfx)
		if prev == nil {
			return nil, false // originated here
		}
		switch prev.Kind {
		case procgraph.External:
			return nil, true
		case procgraph.ProcRIB, procgraph.LocalRIB:
			if prev.Device != cur {
				return prev.Device, false
			}
			node = prev
		default:
			node = prev
		}
	}
	return nil, false
}

// hasRoute reports whether the node's RIB holds the prefix.
func (t *Tracer) hasRoute(n *procgraph.Node, pfx netaddr.Prefix) bool {
	if n == nil || n.Proc == nil {
		return false
	}
	for _, r := range t.sim.ProcRoutes(n.Proc) {
		if r.Prefix == pfx {
			return true
		}
	}
	return false
}
