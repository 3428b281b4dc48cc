package instance

import (
	"strings"
	"sync"
	"testing"

	"routinglens/internal/ciscoparse"
	"routinglens/internal/devmodel"
	"routinglens/internal/paperexample"
	"routinglens/internal/procgraph"
	"routinglens/internal/topology"
)

func modelOf(t *testing.T, n *devmodel.Network) *Model {
	t.Helper()
	return Compute(procgraph.Build(n, topology.Build(n)))
}

func exampleModel(t *testing.T) *Model {
	t.Helper()
	n, err := paperexample.Build()
	if err != nil {
		t.Fatal(err)
	}
	return modelOf(t, n)
}

// The combined example should yield the paper's five instances (Figure 5):
// ospf 64 {r1,r2}, ospf 128 {r2,r3}, bgp 64780 {r2}, ospf 100 {r4,r5,r6},
// bgp 12762 {r4,r5,r6}.
func TestPaperExampleInstances(t *testing.T) {
	m := exampleModel(t)
	if len(m.Instances) != 5 {
		for _, in := range m.Instances {
			t.Logf("instance %d: %s size=%d", in.ID, in.Label(), in.Size())
		}
		t.Fatalf("instances = %d, want 5", len(m.Instances))
	}
	bySize := make(map[string]int)
	for _, in := range m.Instances {
		bySize[in.Label()] = in.Size()
	}
	want := map[string]int{
		"ospf 64":      2,
		"ospf 128":     2,
		"BGP AS 64780": 1,
		"ospf 100":     3,
		"BGP AS 12762": 3,
	}
	for label, size := range want {
		if bySize[label] != size {
			t.Errorf("instance %q size = %d, want %d (all: %v)", label, bySize[label], size, bySize)
		}
	}
}

func TestEBGPBoundaryStopsClosure(t *testing.T) {
	m := exampleModel(t)
	// The EBGP session r2<->r6 must not merge the two BGP instances.
	asns := m.BGPASNs()
	if len(asns) != 2 {
		t.Fatalf("BGP ASNs = %v, want 2 entries", asns)
	}
}

func TestIgnoreASBoundaryAblation(t *testing.T) {
	n, err := paperexample.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := procgraph.Build(n, topology.Build(n))
	def := ComputeWith(g, Options{})
	abl := ComputeWith(g, Options{IgnoreASBoundary: true})
	if len(abl.Instances) >= len(def.Instances) {
		t.Errorf("ablation should collapse instances: default=%d ablated=%d",
			len(def.Instances), len(abl.Instances))
	}
	// BGP 64780 and BGP 12762 should have merged into one instance.
	var bgpCount int
	for _, in := range abl.Instances {
		if in.Protocol == devmodel.ProtoBGP {
			bgpCount++
		}
	}
	if bgpCount != 1 {
		t.Errorf("ablated BGP instances = %d, want 1", bgpCount)
	}
}

func TestInstanceEdges(t *testing.T) {
	m := exampleModel(t)
	label := func(in *Instance) string {
		if in == nil {
			return "ext"
		}
		return in.Label()
	}
	edges := make(map[string]*Edge)
	for _, e := range m.Edges {
		edges[label(e.From)+"->"+label(e.To)+"/"+e.Kind.String()] = e
	}
	// Redistribution on r2: bgp 64780 -> ospf 64 and ospf 64 -> bgp 64780.
	if edges["BGP AS 64780->ospf 64/redistribution"] == nil {
		t.Errorf("missing bgp->ospf redistribution edge; have %v", keys(edges))
	}
	e := edges["ospf 64->BGP AS 64780/redistribution"]
	if e == nil {
		t.Fatalf("missing ospf->bgp redistribution edge; have %v", keys(edges))
	}
	pol := e.Policies()
	if len(pol) != 1 || pol[0] != "ENT-OUT" {
		t.Errorf("redistribution policies = %v", pol)
	}
	// EBGP edge between the two BGP instances (both directions).
	if edges["BGP AS 64780->BGP AS 12762/ebgp"] == nil || edges["BGP AS 12762->BGP AS 64780/ebgp"] == nil {
		t.Errorf("missing inter-AS EBGP edges; have %v", keys(edges))
	}
	// External world edge into BGP 12762 (from R7).
	if edges["ext->BGP AS 12762/external"] == nil {
		t.Errorf("missing external edge; have %v", keys(edges))
	}
}

func keys(m map[string]*Edge) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestExternalASNs(t *testing.T) {
	m := exampleModel(t)
	ext := m.ExternalASNs()
	if len(ext) != 1 || ext[0] != paperexample.CustomerAS {
		t.Errorf("external ASNs = %v", ext)
	}
}

func TestCutRouters(t *testing.T) {
	m := exampleModel(t)
	var o64, bgpEnt *Instance
	for _, in := range m.Instances {
		switch in.Label() {
		case "ospf 64":
			o64 = in
		case "BGP AS 64780":
			bgpEnt = in
		}
	}
	if o64 == nil || bgpEnt == nil {
		t.Fatal("instances missing")
	}
	cut := m.CutRouters(o64, bgpEnt)
	if len(cut) != 1 || cut[0].Hostname != "r2" {
		t.Errorf("CutRouters = %v, want [r2]", cut)
	}
}

func TestIsolatedProcessesFormSingletonInstances(t *testing.T) {
	cfgA := `hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
`
	cfgB := `hostname b
interface Serial0
 ip address 10.9.0.1 255.255.255.252
router ospf 1
 network 10.9.0.0 0.0.0.3 area 0
`
	n := parseNet(t, cfgA, cfgB)
	m := modelOf(t, n)
	// Same process ID, but no shared link: two separate instances — the
	// paper stresses process IDs have no network-wide semantics.
	if len(m.Instances) != 2 {
		t.Errorf("instances = %d, want 2", len(m.Instances))
	}
}

func TestDifferentIDsSameInstance(t *testing.T) {
	cfgA := `hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
router ospf 7
 network 10.0.0.0 0.0.0.3 area 0
`
	cfgB := `hostname b
interface Serial0
 ip address 10.0.0.2 255.255.255.252
router ospf 9
 network 10.0.0.0 0.0.0.3 area 0
`
	n := parseNet(t, cfgA, cfgB)
	m := modelOf(t, n)
	// OSPF adjacency does not require matching process IDs.
	if len(m.Instances) != 1 || m.Instances[0].Size() != 2 {
		t.Errorf("OSPF processes with different IDs should form one instance: %d instances", len(m.Instances))
	}
}

func TestStagingIGPDetection(t *testing.T) {
	cfg := `hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
interface Serial1
 ip address 10.0.0.5 255.255.255.252
router rip
 network 10.0.0.0
`
	n := parseNet(t, cfg)
	m := modelOf(t, n)
	if len(m.Instances) != 1 {
		t.Fatalf("instances = %d", len(m.Instances))
	}
	in := m.Instances[0]
	if !in.IsStagingIGP() {
		t.Errorf("single-router RIP with external peers should be a staging IGP: peers=%d", in.ExternalPeers)
	}
	if in.ExternalPeers != 2 {
		t.Errorf("external peers = %d, want 2 (both unmatched /30s)", in.ExternalPeers)
	}
}

func TestTransitiveClosureChains(t *testing.T) {
	// a -- b -- c in one OSPF instance even though a and c share no link.
	cfgs := []string{
		"hostname a\ninterface Serial0\n ip address 10.0.0.1 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n",
		"hostname b\ninterface Serial0\n ip address 10.0.0.2 255.255.255.252\ninterface Serial1\n ip address 10.0.1.1 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n",
		"hostname c\ninterface Serial0\n ip address 10.0.1.2 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n",
	}
	n := parseNet(t, cfgs...)
	m := modelOf(t, n)
	if len(m.Instances) != 1 || m.Instances[0].Size() != 3 {
		t.Errorf("closure failed: %d instances", len(m.Instances))
	}
}

func TestOfProcessLookup(t *testing.T) {
	m := exampleModel(t)
	r2 := m.Graph.Network.Device("r2")
	in := m.OfProcess(r2.Process("ospf 64"))
	if in == nil || in.Label() != "ospf 64" {
		t.Errorf("OfProcess wrong: %v", in)
	}
}

func TestInstancesOf(t *testing.T) {
	m := exampleModel(t)
	if got := len(m.InstancesOf(devmodel.ProtoOSPF)); got != 3 {
		t.Errorf("OSPF instances = %d, want 3", got)
	}
	if got := len(m.InstancesOf(devmodel.ProtoBGP)); got != 2 {
		t.Errorf("BGP instances = %d, want 2", got)
	}
}

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

// TestEdgeIndexConcurrentReaders: a served generation's first queries
// read the edge indexes from several goroutines at once, so the indexes
// must already exist when Compute returns. Four readers on a fresh model
// each see every edge exactly once into and once out of its endpoint
// (run under -race to catch a lazily built index).
func TestEdgeIndexConcurrentReaders(t *testing.T) {
	m := exampleModel(t)
	endpoints := append([]*Instance{nil}, m.Instances...)
	var wg sync.WaitGroup
	counts := make([][2]int, 4)
	for g := range counts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, in := range endpoints {
				counts[g][0] += len(m.EdgesInto(in))
				counts[g][1] += len(m.EdgesFrom(in))
			}
		}(g)
	}
	wg.Wait()
	for g, c := range counts {
		if c[0] != len(m.Edges) || c[1] != len(m.Edges) {
			t.Errorf("reader %d: %d edges in, %d out, want %d each", g, c[0], c[1], len(m.Edges))
		}
	}
}
