// Package junosemit renders a parsed device model back out as a
// JunOS-style configuration. Together with the junosparse front end it
// closes a dialect round trip: a Cisco IOS configuration parsed into the
// model, emitted as JunOS, and re-parsed must yield an isomorphic routing
// design. That invariance is the practical proof of the paper's claim that
// the model captures routing design independent of configuration language
// (Section 2: "the granularity and type of information they contain are
// very similar").
//
// The emitter covers the model subset the corpus generators produce:
// interfaces with addresses and packet-filter bindings, OSPF/RIP coverage,
// BGP neighbors with policies, static routes, access lists, and
// route-maps. A device the emitter cannot render without losing routes
// is rejected with an error rather than silently trimmed: one running
// EIGRP (Cisco-proprietary, no JunOS analogue), one running more than
// one OSPF process (the emitter writes a single OSPF instance, which
// would drop the mutual redistribution between the processes), and one
// whose BGP process originates prefixes with network statements (never
// emitted).
package junosemit

import (
	"fmt"
	"sort"
	"strings"

	"routinglens/internal/devmodel"
	"routinglens/internal/netaddr"
)

// Emit renders the device as a JunOS configuration, or returns an error
// for a device it would render lossily (see the package comment).
func Emit(d *devmodel.Device) (string, error) {
	for _, p := range d.Processes {
		switch p.Protocol {
		case devmodel.ProtoEIGRP, devmodel.ProtoIGRP:
			return "", fmt.Errorf("junosemit: %s runs %s, which has no JunOS analogue", d.Hostname, p.Protocol)
		case devmodel.ProtoBGP:
			if len(p.Networks) > 0 {
				return "", fmt.Errorf("junosemit: %s originates %d prefix(es) with BGP network statements, which the emitter does not render",
					d.Hostname, len(p.Networks))
			}
		}
	}
	if n := len(d.ProcessesOf(devmodel.ProtoOSPF)); n > 1 {
		return "", fmt.Errorf("junosemit: %s runs %d OSPF processes; the emitter renders one OSPF instance", d.Hostname, n)
	}
	e := &emitter{dev: d}
	e.f("system {\n    host-name %s;\n}\n", d.Hostname)
	e.interfaces()
	e.routingOptions()
	e.protocols()
	e.policyOptions()
	e.firewall()
	return e.b.String(), nil
}

type emitter struct {
	dev *devmodel.Device
	b   strings.Builder
	// policies collects the policy-statements to emit: JunOS needs
	// distribute-list ACLs re-expressed as policies.
	policies []policyStmt
}

type policyStmt struct {
	name  string
	terms []policyTerm
}

type policyTerm struct {
	name    string
	filters []string // route-filter lines
	tags    []string
	accept  bool
	setTag  string
}

func (e *emitter) f(format string, args ...any) { fmt.Fprintf(&e.b, format, args...) }

// junosIfaceName converts an IOS interface name to a JunOS-style unit
// name; the mapping only needs to be injective and stable.
func junosIfaceName(name string) string {
	s := strings.ToLower(name)
	s = strings.NewReplacer("/", "-", ".", "-", ":", "-").Replace(s)
	return "xe-" + s + ".0"
}

func (e *emitter) interfaces() {
	if len(e.dev.Interfaces) == 0 {
		return
	}
	e.f("interfaces {\n")
	for _, i := range e.dev.Interfaces {
		jname := junosIfaceName(i.Name)
		phys := strings.TrimSuffix(jname, ".0")
		e.f("    %s {\n", phys)
		if i.Description != "" {
			e.f("        description \"%s\";\n", i.Description)
		}
		if i.Shutdown {
			e.f("        disable;\n")
		}
		e.f("        unit 0 {\n")
		if i.HasAddr() || i.AccessGroupIn != "" || i.AccessGroupOut != "" {
			e.f("            family inet {\n")
			for _, a := range i.Addrs {
				p, err := netaddr.PrefixFromMask(a.Addr, a.Mask)
				if err != nil {
					continue
				}
				e.f("                address %s/%d;\n", a.Addr, p.Bits())
			}
			if i.AccessGroupIn != "" || i.AccessGroupOut != "" {
				e.f("                filter {\n")
				if i.AccessGroupIn != "" {
					e.f("                    input %s;\n", filterName(i.AccessGroupIn))
				}
				if i.AccessGroupOut != "" {
					e.f("                    output %s;\n", filterName(i.AccessGroupOut))
				}
				e.f("                }\n")
			}
			e.f("            }\n")
		}
		e.f("        }\n")
		e.f("    }\n")
	}
	e.f("}\n")
}

func (e *emitter) routingOptions() {
	var myAS uint32
	for _, p := range e.dev.ProcessesOf(devmodel.ProtoBGP) {
		myAS = p.ASN
	}
	if myAS == 0 && len(e.dev.Statics) == 0 {
		return
	}
	e.f("routing-options {\n")
	if myAS != 0 {
		e.f("    autonomous-system %d;\n", myAS)
	}
	if len(e.dev.Statics) > 0 {
		e.f("    static {\n")
		for _, sr := range e.dev.Statics {
			if sr.HasHop {
				e.f("        route %s next-hop %s;\n", sr.Prefix, sr.NextHop)
			}
		}
		e.f("    }\n")
	}
	e.f("}\n")
}

// coveredInterfaces lists the JunOS unit names of interfaces the process
// covers (the JunOS way of associating interfaces with protocols).
func (e *emitter) coveredInterfaces(p *devmodel.RoutingProcess) []struct {
	name    string
	passive bool
} {
	var out []struct {
		name    string
		passive bool
	}
	for _, i := range e.dev.Interfaces {
		covered := false
		for _, a := range i.Addrs {
			if p.CoversAddr(a.Addr) {
				covered = true
			}
		}
		if covered {
			out = append(out, struct {
				name    string
				passive bool
			}{junosIfaceName(i.Name), p.IsPassive(i.Name)})
		}
	}
	return out
}

func (e *emitter) protocols() {
	ospf := e.dev.ProcessesOf(devmodel.ProtoOSPF)
	rip := e.dev.ProcessesOf(devmodel.ProtoRIP)
	bgp := e.dev.ProcessesOf(devmodel.ProtoBGP)
	if len(ospf) == 0 && len(rip) == 0 && len(bgp) == 0 {
		return
	}
	e.f("protocols {\n")
	for _, p := range ospf {
		e.f("    ospf {\n")
		if name, ok := e.exportPolicyFor(p); ok {
			e.f("        export %s;\n", name)
		}
		e.f("        area 0.0.0.0 {\n")
		for _, ci := range e.coveredInterfaces(p) {
			if ci.passive {
				e.f("            interface %s { passive; }\n", ci.name)
			} else {
				e.f("            interface %s;\n", ci.name)
			}
		}
		e.f("        }\n    }\n")
	}
	for _, p := range rip {
		e.f("    rip {\n        group corp {\n")
		if name, ok := e.exportPolicyFor(p); ok {
			e.f("            export %s;\n", name)
		}
		for _, ci := range e.coveredInterfaces(p) {
			e.f("            neighbor %s;\n", ci.name)
		}
		e.f("        }\n    }\n")
	}
	for _, p := range bgp {
		e.f("    bgp {\n")
		if name, ok := e.exportPolicyFor(p); ok {
			e.f("        export %s;\n", name)
		}
		gi := 0
		for _, nb := range p.Neighbors {
			if nb.IsPeerGroupName || nb.RemoteAS == 0 {
				continue
			}
			gi++
			kind := "external"
			if nb.RemoteAS == p.ASN {
				kind = "internal"
			}
			e.f("        group g%d {\n            type %s;\n", gi, kind)
			if kind == "external" {
				e.f("            peer-as %d;\n", nb.RemoteAS)
			}
			e.f("            neighbor %s {\n", nb.Addr)
			if in := e.importPolicy(nb); in != "" {
				e.f("                import %s;\n", in)
			}
			if out := e.exportPolicy(nb); out != "" {
				e.f("                export %s;\n", out)
			}
			e.f("            }\n        }\n")
		}
		e.f("    }\n")
	}
	e.f("}\n")
}

// exportPolicyFor converts the process's redistributions into one export
// policy: each redistribution's route-map (or implicit accept) becomes a
// term.
func (e *emitter) exportPolicyFor(p *devmodel.RoutingProcess) (string, bool) {
	if len(p.Redistributions) == 0 {
		return "", false
	}
	name := "export-" + strings.ReplaceAll(p.Key(), " ", "-")
	ps := policyStmt{name: name}
	for i, rd := range p.Redistributions {
		term := policyTerm{name: fmt.Sprintf("t%d", i+1), accept: true}
		if rd.RouteMap != "" {
			// Reference the converted route-map's terms by inlining them.
			rm := e.dev.RouteMaps[rd.RouteMap]
			if rm != nil {
				for j, ent := range rm.Entries {
					t := e.termFromRouteMapEntry(ent, fmt.Sprintf("t%d-%d", i+1, j+1))
					ps.terms = append(ps.terms, t)
				}
				continue
			}
		}
		ps.terms = append(ps.terms, term)
	}
	e.policies = append(e.policies, ps)
	return name, true
}

// importPolicy converts a neighbor's inbound filters to a policy name.
func (e *emitter) importPolicy(nb devmodel.BGPNeighbor) string {
	return e.neighborPolicy(nb.RouteMapIn, nb.DistributeListIn, "in", nb.Addr)
}

// exportPolicy converts a neighbor's outbound filters to a policy name.
func (e *emitter) exportPolicy(nb devmodel.BGPNeighbor) string {
	return e.neighborPolicy(nb.RouteMapOut, nb.DistributeListOut, "out", nb.Addr)
}

func (e *emitter) neighborPolicy(routeMap, distList, dir string, addr netaddr.Addr) string {
	if routeMap == "" && distList == "" {
		return ""
	}
	name := fmt.Sprintf("nbr-%s-%s", strings.ReplaceAll(addr.String(), ".", "-"), dir)
	ps := policyStmt{name: name}
	if routeMap != "" {
		if rm := e.dev.RouteMaps[routeMap]; rm != nil {
			for j, ent := range rm.Entries {
				ps.terms = append(ps.terms, e.termFromRouteMapEntry(ent, fmt.Sprintf("rm%d", j+1)))
			}
		}
	}
	if distList != "" {
		ps.terms = append(ps.terms, e.termsFromACL(distList)...)
	}
	e.policies = append(e.policies, ps)
	return name
}

// termFromRouteMapEntry converts one route-map entry.
func (e *emitter) termFromRouteMapEntry(ent devmodel.RouteMapEntry, name string) policyTerm {
	t := policyTerm{name: name, accept: ent.Action == devmodel.ActionPermit, setTag: ent.SetTag}
	for _, aclName := range ent.MatchACLs {
		if acl := e.dev.AccessLists[aclName]; acl != nil {
			for _, p := range acl.PermittedSpace() {
				t.filters = append(t.filters, fmt.Sprintf("route-filter %s orlonger", p))
			}
		}
	}
	t.tags = append(t.tags, ent.MatchTags...)
	return t
}

// termsFromACL converts a standard ACL used as a route filter into policy
// terms, preserving clause order and actions.
func (e *emitter) termsFromACL(aclName string) []policyTerm {
	acl := e.dev.AccessLists[aclName]
	if acl == nil {
		return nil
	}
	var out []policyTerm
	for i, c := range acl.Clauses {
		t := policyTerm{name: fmt.Sprintf("acl%s-%d", aclName, i+1), accept: c.Action == devmodel.ActionPermit}
		switch {
		case c.SrcAny:
			t.filters = append(t.filters, "route-filter 0.0.0.0/0 orlonger")
		case c.SrcHost:
			t.filters = append(t.filters, fmt.Sprintf("route-filter %s/32 exact", c.Src))
		default:
			if p, ok := netaddr.WildcardToPrefix(c.Src, c.SrcWildcard); ok {
				t.filters = append(t.filters, fmt.Sprintf("route-filter %s orlonger", p))
			}
		}
		out = append(out, t)
	}
	// Implicit trailing deny.
	out = append(out, policyTerm{name: fmt.Sprintf("acl%s-deny", aclName), accept: false})
	return out
}

func (e *emitter) policyOptions() {
	if len(e.policies) == 0 {
		return
	}
	// Deduplicate by name (a policy may be referenced twice).
	seen := make(map[string]bool)
	var ps []policyStmt
	for _, p := range e.policies {
		if !seen[p.name] {
			seen[p.name] = true
			ps = append(ps, p)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].name < ps[j].name })

	e.f("policy-options {\n")
	for _, p := range ps {
		e.f("    policy-statement %s {\n", p.name)
		for _, t := range p.terms {
			e.f("        term %s {\n", t.name)
			if len(t.filters) > 0 || len(t.tags) > 0 {
				e.f("            from {\n")
				for _, fl := range t.filters {
					e.f("                %s;\n", fl)
				}
				for _, tag := range t.tags {
					e.f("                tag %s;\n", tag)
				}
				e.f("            }\n")
			}
			verdict := "reject"
			if t.accept {
				verdict = "accept"
			}
			if t.setTag != "" {
				e.f("            then {\n                tag %s;\n                %s;\n            }\n", t.setTag, verdict)
			} else {
				e.f("            then %s;\n", verdict)
			}
			e.f("        }\n")
		}
		e.f("    }\n")
	}
	e.f("}\n")
}

// filterName maps an ACL name to a JunOS-legal filter name.
func filterName(acl string) string { return "f" + acl }

func (e *emitter) firewall() {
	// Only ACLs bound to interfaces become firewall filters.
	bound := make(map[string]bool)
	for _, i := range e.dev.Interfaces {
		if i.AccessGroupIn != "" {
			bound[i.AccessGroupIn] = true
		}
		if i.AccessGroupOut != "" {
			bound[i.AccessGroupOut] = true
		}
	}
	if len(bound) == 0 {
		return
	}
	names := make([]string, 0, len(bound))
	for n := range bound {
		names = append(names, n)
	}
	sort.Strings(names)

	e.f("firewall {\n    family inet {\n")
	for _, name := range names {
		acl := e.dev.AccessLists[name]
		if acl == nil {
			continue
		}
		e.f("        filter %s {\n", filterName(name))
		for i, c := range acl.Clauses {
			e.f("            term t%d {\n", i+1)
			hasFrom := !c.SrcAny || !c.DstAny || (c.Proto != "" && c.Proto != "ip") || len(c.DstPorts) > 0 || len(c.SrcPorts) > 0
			if hasFrom {
				e.f("                from {\n")
				if c.Proto != "" && c.Proto != "ip" {
					e.f("                    protocol %s;\n", c.Proto)
				}
				if !c.SrcAny {
					e.f("                    source-address { %s; }\n", endpointPrefix(c.SrcHost, c.Src, c.SrcWildcard))
				}
				if !c.DstAny {
					e.f("                    destination-address { %s; }\n", endpointPrefix(c.DstHost, c.Dst, c.DstWildcard))
				}
				for _, p := range c.DstPorts {
					e.f("                    destination-port %s;\n", p)
				}
				for _, p := range c.SrcPorts {
					e.f("                    source-port %s;\n", p)
				}
				e.f("                }\n")
			}
			if c.Action == devmodel.ActionPermit {
				e.f("                then accept;\n")
			} else {
				e.f("                then discard;\n")
			}
			e.f("            }\n")
		}
		e.f("        }\n")
	}
	e.f("    }\n}\n")
}

func endpointPrefix(host bool, a netaddr.Addr, wc netaddr.Mask) string {
	if host {
		return a.String() + "/32"
	}
	if p, ok := netaddr.WildcardToPrefix(a, wc); ok {
		return p.String()
	}
	return a.String() + "/32"
}
