package reach

import (
	"testing"

	"routinglens/internal/addrspace"
	"routinglens/internal/instance"
	"routinglens/internal/net15"
	"routinglens/internal/netaddr"
	"routinglens/internal/procgraph"
	"routinglens/internal/simroute"
	"routinglens/internal/topology"
)

func net15Analysis(t *testing.T, perSite int) *Analysis {
	t.Helper()
	n, err := net15.Build(net15.Params{RoutersPerSite: perSite})
	if err != nil {
		t.Fatal(err)
	}
	m := instance.Compute(procgraph.Build(n, topology.Build(n)))
	space := addrspace.Discover(addrspace.CollectSubnets(n), addrspace.Options{})
	return Analyze(m, space, net15.ExternalRoutes(), nil)
}

func TestNet15InstanceStructure(t *testing.T) {
	a := net15Analysis(t, 3)
	m := a.Model
	// Two OSPF instances + two BGP instances = 4 (the paper's net15 has 6;
	// our analogue folds the two extra instances into the sites).
	if len(m.Instances) != 4 {
		for _, in := range m.Instances {
			t.Logf("%d %s size=%d", in.ID, in.Label(), in.Size())
		}
		t.Fatalf("instances = %d, want 4", len(m.Instances))
	}
	if asns := m.ExternalASNs(); len(asns) != 2 {
		t.Errorf("external ASNs = %v", asns)
	}
}

func TestNet15NoInternetReachability(t *testing.T) {
	a := net15Analysis(t, 3)
	// "There is no default route permitted."
	if a.HasDefaultRoute() {
		t.Error("default route should be filtered by A1/A3")
	}
	admitted := a.AdmittedExternalRoutes()
	allowed := map[string]bool{
		net15.AB0.String(): true,
		net15.AB1.String(): true,
		net15.AB3.String(): true,
	}
	for _, p := range admitted {
		if !allowed[p.String()] {
			t.Errorf("route %s admitted but not permitted by any ingress policy", p)
		}
	}
	if len(admitted) == 0 {
		t.Error("the permitted corporate blocks should be admitted")
	}
}

func TestNet15SitesPartitioned(t *testing.T) {
	a := net15Analysis(t, 3)
	// "Packets from hosts connected in Address Block 2 cannot reach hosts
	// in Address Block 4 at all, or vice versa."
	if !a.Partitioned(net15.AB2, net15.AB4) {
		t.Error("the two sites should be mutually unreachable")
	}
	// But each site reaches its own hosts and the admitted remote space.
	if !a.BlockReachesBlock(net15.AB2, net15.AB0) {
		t.Error("left site should reach AB0")
	}
	if !a.BlockReachesBlock(net15.AB4, net15.AB3) {
		t.Error("right site should reach AB3")
	}
	if a.BlockReachesBlock(net15.AB2, net15.AB3) {
		t.Error("left site must not reach AB3 (only admitted at the right)")
	}
}

func TestNet15RoutesAnnouncedOut(t *testing.T) {
	a := net15Analysis(t, 2)
	ann := a.AnnouncedRoutes()
	left := ann[net15.LeftPeerAS]
	if len(left) == 0 {
		t.Fatal("left peer should receive announcements")
	}
	for _, p := range left {
		if !net15.AB2.ContainsPrefix(p) {
			t.Errorf("left site announced %s outside AB2", p)
		}
	}
	right := ann[net15.RightPeerAS]
	for _, p := range right {
		if !net15.AB4.ContainsPrefix(p) {
			t.Errorf("right site announced %s outside AB4", p)
		}
	}
}

func TestNet15PolicyTable(t *testing.T) {
	a := net15Analysis(t, 2)
	rows := a.PolicyTable()
	if len(rows) == 0 {
		t.Fatal("policy table empty")
	}
	// Find the left ingress policy (ACL 11 on l0): must mention AB0, AB1.
	var found bool
	for _, r := range rows {
		if r.Device.Hostname == "l0" && r.Name == "11" {
			found = true
			if len(r.Blocks) != 2 || r.Blocks[0] != net15.AB0 || r.Blocks[1] != net15.AB1 {
				t.Errorf("policy 11 blocks = %v", r.Blocks)
			}
		}
	}
	if !found {
		t.Errorf("policy 11 missing from table: %+v", rows)
	}
}

func TestNet15IGPLoadBounded(t *testing.T) {
	a := net15Analysis(t, 4)
	for _, in := range a.Model.Instances {
		if !in.Protocol.IsIGP() {
			continue
		}
		load := a.IGPLoad(in)
		if load == 0 {
			t.Errorf("instance %s carries no routes", in.Label())
		}
		// Bound: internal subnets (/30 chain + LANs + peering) plus the at
		// most 2 admitted external blocks.
		maxExpected := 4 /*chain /30s*/ + 4 /*LANs*/ + 1 /*peer /30*/ + 2 /*external*/ + 2 /*slack*/
		if load > maxExpected {
			t.Errorf("instance %s load = %d, want <= %d (ingress filters should bound it)", in.Label(), load, maxExpected)
		}
	}
}

func TestAnalyzeOnEmptyExternal(t *testing.T) {
	n, err := net15.Build(net15.Params{RoutersPerSite: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := instance.Compute(procgraph.Build(n, topology.Build(n)))
	space := addrspace.Discover(addrspace.CollectSubnets(n), addrspace.Options{})
	a := Analyze(m, space, nil, nil)
	if got := a.AdmittedExternalRoutes(); len(got) != 0 {
		t.Errorf("no injections -> no external routes, got %v", got)
	}
	if a.HasDefaultRoute() {
		t.Error("no default without injections")
	}
}

func TestBlockReachesBlockHostRoute(t *testing.T) {
	n, err := net15.Build(net15.Params{RoutersPerSite: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := instance.Compute(procgraph.Build(n, topology.Build(n)))
	space := addrspace.Discover(addrspace.CollectSubnets(n), addrspace.Options{})
	a := Analyze(m, space, []simroute.ExternalRoute{
		{Prefix: netaddr.MustParsePrefix("10.128.7.7/32"), AS: net15.LeftPeerAS},
	}, nil)
	if !a.BlockReachesBlock(net15.AB2, netaddr.MustParsePrefix("10.128.7.7/32")) {
		t.Error("host route within admitted space should be reachable")
	}
}

// TestAnalyzeKeepsRounds: Analyze keeps the simulation's round count. A
// cold analysis takes as many rounds as a bare run of the simulator; one
// that reuses an unchanged analysis moves nothing and stops after the
// one round that finds nothing to move.
func TestAnalyzeKeepsRounds(t *testing.T) {
	a := net15Analysis(t, 3)
	bare := simroute.New(a.Model.Graph, net15.ExternalRoutes())
	if want := bare.Run(); a.Rounds != want || want < 2 {
		t.Errorf("cold Analyze kept %d rounds, the simulator took %d", a.Rounds, want)
	}
	again := Analyze(a.Model, a.Space, net15.ExternalRoutes(), a)
	if again.Simulated != 0 || again.Rounds != 1 {
		t.Errorf("reusing an unchanged analysis simulated %d prefixes in %d rounds, want 0 in 1", again.Simulated, again.Rounds)
	}
}
