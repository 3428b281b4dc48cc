package simroute

import (
	"strings"
	"testing"

	"routinglens/internal/ciscoparse"
	"routinglens/internal/devmodel"
	"routinglens/internal/netaddr"
	"routinglens/internal/paperexample"
	"routinglens/internal/procgraph"
	"routinglens/internal/topology"
)

func parseNet(t *testing.T, cfgs ...string) *devmodel.Network {
	t.Helper()
	n := &devmodel.Network{Name: "t"}
	for _, c := range cfgs {
		res, err := ciscoparse.Parse("cfg", strings.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		n.Devices = append(n.Devices, res.Device)
	}
	return n
}

func simFor(t *testing.T, n *devmodel.Network, ext []ExternalRoute) *Sim {
	t.Helper()
	g := procgraph.Build(n, topology.Build(n))
	s := New(g, ext)
	s.Run()
	return s
}

func TestConnectedOrigination(t *testing.T) {
	n := parseNet(t, "hostname a\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n")
	s := simFor(t, n, nil)
	d := n.Devices[0]
	if !s.HasRoute(d, netaddr.MustParsePrefix("10.0.0.0/24")) {
		t.Error("connected subnet missing from router RIB")
	}
	if !s.CanReach(d, netaddr.MustParseAddr("10.0.0.200")) {
		t.Error("CanReach within connected subnet failed")
	}
	if s.CanReach(d, netaddr.MustParseAddr("10.1.0.1")) {
		t.Error("CanReach outside all routes should be false")
	}
}

func TestStaticRoutesSelected(t *testing.T) {
	n := parseNet(t, `hostname a
interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
ip route 192.168.0.0 255.255.0.0 10.0.0.254
`)
	s := simFor(t, n, nil)
	d := n.Devices[0]
	routes := s.RouterRoutes(d)
	var static *Selected
	for i := range routes {
		if routes[i].Route.Prefix.String() == "192.168.0.0/16" {
			static = &routes[i]
		}
	}
	if static == nil || static.Proto != devmodel.ProtoStatic || static.Distance != 1 {
		t.Errorf("static route selection wrong: %+v", static)
	}
}

func TestIGPPropagation(t *testing.T) {
	// a learns b's LAN via OSPF (b redistributes connected).
	n := parseNet(t,
		`hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
`,
		`hostname b
interface Serial0
 ip address 10.0.0.2 255.255.255.252
interface Ethernet0
 ip address 10.5.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 redistribute connected subnets
`)
	s := simFor(t, n, nil)
	a := n.Device("a")
	if !s.CanReach(a, netaddr.MustParseAddr("10.5.0.77")) {
		t.Error("a should learn b's LAN via OSPF redistribution")
	}
}

func TestDistributeListBlocksRoute(t *testing.T) {
	n := parseNet(t,
		`hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 distribute-list 9 in
access-list 9 deny 10.5.0.0 0.0.0.255
access-list 9 permit any
`,
		`hostname b
interface Serial0
 ip address 10.0.0.2 255.255.255.252
interface Ethernet0
 ip address 10.5.0.1 255.255.255.0
interface Ethernet1
 ip address 10.6.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 redistribute connected subnets
`)
	s := simFor(t, n, nil)
	a := n.Device("a")
	if s.CanReach(a, netaddr.MustParseAddr("10.5.0.9")) {
		t.Error("distribute-list should block 10.5.0.0/24")
	}
	if !s.CanReach(a, netaddr.MustParseAddr("10.6.0.9")) {
		t.Error("distribute-list should permit 10.6.0.0/24")
	}
}

func TestRouteMapTagging(t *testing.T) {
	// b tags redistributed connected routes; the tag is visible in a's
	// process RIB after OSPF propagation.
	n := parseNet(t,
		`hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
`,
		`hostname b
interface Serial0
 ip address 10.0.0.2 255.255.255.252
interface Ethernet0
 ip address 10.5.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 redistribute connected route-map TAGIT subnets
route-map TAGIT permit 10
 set tag 777
`)
	s := simFor(t, n, nil)
	a := n.Device("a")
	var tagged bool
	for _, r := range s.ProcRoutes(a.Process("ospf 1")) {
		if r.Prefix.String() == "10.5.0.0/24" && r.Tags.Has("777") {
			tagged = true
		}
	}
	if !tagged {
		t.Error("tag 777 should propagate with the redistributed route")
	}
}

func TestRouteMapDenyBlocks(t *testing.T) {
	n := parseNet(t,
		`hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
`,
		`hostname b
interface Serial0
 ip address 10.0.0.2 255.255.255.252
interface Ethernet0
 ip address 10.5.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 redistribute connected route-map BLOCK subnets
access-list 5 permit 10.5.0.0 0.0.0.255
route-map BLOCK deny 10
 match ip address 5
route-map BLOCK permit 20
`)
	s := simFor(t, n, nil)
	a := n.Device("a")
	if s.CanReach(a, netaddr.MustParseAddr("10.5.0.9")) {
		t.Error("route-map deny should block the redistribution")
	}
	// The /30 itself still arrives (connected coverage on both ends).
	if !s.CanReach(a, netaddr.MustParseAddr("10.0.0.2")) {
		t.Error("link subnet should be reachable")
	}
}

func TestExternalInjectionAndEnterprisePath(t *testing.T) {
	// Enterprise-only view of the paper example: R6 is external, injecting
	// a default and a remote prefix. R2 redistributes BGP into OSPF 64, so
	// r1 learns external routes; r3 (ospf 128, no bgp redistribution into
	// it) must not.
	n, err := paperexample.BuildEnterprise()
	if err != nil {
		t.Fatal(err)
	}
	ext := []ExternalRoute{
		{Prefix: netaddr.MustParsePrefix("198.51.100.0/24"), AS: paperexample.BackboneAS},
	}
	s := simFor(t, n, ext)
	r1 := n.Device("r1")
	r3 := n.Device("r3")
	if !s.CanReach(r1, netaddr.MustParseAddr("198.51.100.7")) {
		t.Error("r1 should learn the external route via bgp->ospf redistribution")
	}
	if s.CanReach(r3, netaddr.MustParseAddr("198.51.100.7")) {
		t.Error("r3 (ospf 128 only) should not learn the external route")
	}
	// Announcements out: the enterprise announces 10.10.0.0/16 summaries
	// filtered by distribute-list 3 / route-map ENT-OUT.
	exts := s.Graph.ExternalNodes()
	if len(exts) != 1 {
		t.Fatalf("external nodes = %d", len(exts))
	}
	ann := s.AnnouncedToExternal(exts[0])
	for _, p := range ann {
		if !strings.HasPrefix(p.String(), "10.10.") {
			t.Errorf("announced %s should have been filtered by ENT-OUT/dl-3", p)
		}
	}
}

func TestBackboneIBGPDistribution(t *testing.T) {
	// Backbone-only view: external route injected at R4's peer R7 must
	// reach r6 via IBGP, but never enter the OSPF instance.
	n, err := paperexample.BuildBackbone()
	if err != nil {
		t.Fatal(err)
	}
	ext := []ExternalRoute{{Prefix: netaddr.MustParsePrefix("203.0.113.0/24"), AS: paperexample.CustomerAS}}
	s := simFor(t, n, ext)
	r6 := n.Device("r6")
	if !s.CanReach(r6, netaddr.MustParseAddr("203.0.113.5")) {
		t.Error("external route should reach r6 via IBGP")
	}
	for _, r := range s.ProcRoutes(r6.Process("ospf 100")) {
		if r.Prefix.String() == "203.0.113.0/24" {
			t.Error("external route must not leak into backbone OSPF")
		}
	}
}

func TestAdminDistanceSelection(t *testing.T) {
	// The same prefix learned via OSPF and via a static route: static wins.
	n := parseNet(t,
		`hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
ip route 10.5.0.0 255.255.255.0 10.0.0.2
`,
		`hostname b
interface Serial0
 ip address 10.0.0.2 255.255.255.252
interface Ethernet0
 ip address 10.5.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 redistribute connected subnets
`)
	s := simFor(t, n, nil)
	a := n.Device("a")
	for _, sel := range s.RouterRoutes(a) {
		if sel.Route.Prefix.String() == "10.5.0.0/24" {
			if sel.Proto != devmodel.ProtoStatic {
				t.Errorf("selection picked %v, want static", sel.Proto)
			}
		}
	}
}

func TestEqualDistanceTieBreak(t *testing.T) {
	// a learns b's LAN in two OSPF processes, tagged differently by b's
	// two redistributions. Both win at distance 110; selection keeps the
	// process configured first.
	n := parseNet(t,
		`hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
interface Serial1
 ip address 10.0.1.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
router ospf 2
 network 10.0.1.0 0.0.0.3 area 0
`,
		`hostname b
interface Serial0
 ip address 10.0.0.2 255.255.255.252
interface Serial1
 ip address 10.0.1.2 255.255.255.252
interface Ethernet0
 ip address 10.5.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 redistribute connected route-map ONE subnets
router ospf 2
 network 10.0.1.0 0.0.0.3 area 0
 redistribute connected route-map TWO subnets
route-map ONE permit 10
 set tag 1
route-map TWO permit 10
 set tag 2
`)
	s := simFor(t, n, nil)
	lan := netaddr.MustParsePrefix("10.5.0.0/24")
	for _, sel := range s.RouterRoutes(n.Device("a")) {
		if sel.Route.Prefix == lan {
			if sel.Proto != devmodel.ProtoOSPF || !sel.Route.Tags.Has("1") || sel.Route.Tags.Has("2") {
				t.Errorf("selected %v tags %v, want ospf 1's route (tag 1)", sel.Proto, sel.Route.Tags)
			}
			return
		}
	}
	t.Error("a has no route to b's LAN")
}

func TestRunTerminates(t *testing.T) {
	n, err := paperexample.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := procgraph.Build(n, topology.Build(n))
	s := New(g, []ExternalRoute{{Prefix: netaddr.MustParsePrefix("0.0.0.0/0")}})
	rounds := s.Run()
	if rounds <= 0 || rounds > 100 {
		t.Errorf("rounds = %d, expected quick fixpoint", rounds)
	}
}

// TestRunFreesLogs pins that the logs, Run's worklists, do not outlive
// it, whether the run was full or reused an earlier fixpoint: a serving
// generation keeps only its RIBs.
func TestRunFreesLogs(t *testing.T) {
	n, err := paperexample.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := procgraph.Build(n, topology.Build(n))
	ext := []ExternalRoute{{Prefix: netaddr.MustParsePrefix("0.0.0.0/0")}}
	check := func(what string, s *Sim) {
		t.Helper()
		for i, rb := range s.ribs {
			if rb.log != nil {
				t.Errorf("%s: %s keeps a log of %d entries (capacity %d) after Run",
					what, s.Graph.Nodes[i].ID(), len(rb.log), cap(rb.log))
			}
		}
	}
	full := New(g, ext)
	logged := 0
	for _, rb := range full.ribs {
		logged += len(rb.log)
	}
	if logged == 0 {
		t.Fatal("New logged no origination")
	}
	full.Run()
	check("full run", full)
	reused := New(g, ext)
	reused.Reuse(full)
	reused.Run()
	check("reusing run", reused)
}
