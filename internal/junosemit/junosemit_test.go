package junosemit

import (
	"strings"
	"testing"

	"routinglens/internal/ciscoparse"
	"routinglens/internal/devmodel"
	"routinglens/internal/instance"
	"routinglens/internal/junosparse"
	"routinglens/internal/netgen"
	"routinglens/internal/procgraph"
	"routinglens/internal/topology"
)

func parseIOS(t *testing.T, cfg string) *devmodel.Device {
	t.Helper()
	res, err := ciscoparse.Parse("t", strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return res.Device
}

func TestEmitBasicDevice(t *testing.T) {
	d := parseIOS(t, `hostname edge
interface Serial0
 ip address 10.0.0.1 255.255.255.252
 ip access-group 120 in
interface Ethernet0
 ip address 10.5.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.255.255.255 area 0
 redistribute connected subnets
router bgp 65001
 neighbor 10.0.0.2 remote-as 701
 neighbor 10.0.0.2 distribute-list 10 in
access-list 10 permit 10.0.0.0 0.255.255.255
access-list 120 deny udp any any eq 161
access-list 120 permit ip any any
ip route 192.168.9.0 255.255.255.0 10.5.0.254
`)
	out, err := Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"host-name edge;",
		"address 10.0.0.1/30;",
		"input f120;",
		"autonomous-system 65001;",
		"route 192.168.9.0/24 next-hop 10.5.0.254;",
		"protocols {",
		"peer-as 701;",
		"policy-statement",
		"filter f120 {",
		"protocol udp;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("emitted config missing %q:\n%s", want, out)
		}
	}
	// The emission must itself be detected and parsed as JunOS.
	if !junosparse.LooksLikeJunOS(out) {
		t.Fatal("emitted config not detected as JunOS")
	}
	res, err := junosparse.Parse("edge", strings.NewReader(out))
	if err != nil {
		t.Fatalf("emitted config does not re-parse: %v", err)
	}
	if res.Device.Hostname != "edge" {
		t.Errorf("round-trip hostname = %q", res.Device.Hostname)
	}
}

func TestEIGRPRejected(t *testing.T) {
	d := parseIOS(t, "hostname r\nrouter eigrp 10\n network 10.0.0.0\n")
	if _, err := Emit(d); err == nil {
		t.Error("EIGRP device should be rejected")
	}
}

// TestMultiOSPFRejected: a second OSPF process (a border router
// redistributing between two IGP instances) would be dropped by a
// single-instance rendering, so the device is refused.
func TestMultiOSPFRejected(t *testing.T) {
	d := parseIOS(t, `hostname border
interface Ethernet0
 ip address 10.0.0.1 255.255.255.0
interface Ethernet1
 ip address 10.1.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.0.0.255 area 0
 redistribute ospf 2 subnets
router ospf 2
 network 10.1.0.0 0.0.0.255 area 0
 redistribute ospf 1 subnets
`)
	_, err := Emit(d)
	if err == nil || !strings.Contains(err.Error(), "2 OSPF processes") {
		t.Errorf("two-OSPF device: err = %v, want a refusal naming 2 OSPF processes", err)
	}
	// One OSPF process still emits.
	one := parseIOS(t, "hostname r\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\nrouter ospf 1\n network 10.0.0.0 0.0.0.255 area 0\n")
	if _, err := Emit(one); err != nil {
		t.Errorf("one-OSPF device: %v", err)
	}
}

// TestBGPNetworkRejected: a BGP network statement originates a prefix
// the emitter never renders, so the device is refused rather than
// emitted without the route.
func TestBGPNetworkRejected(t *testing.T) {
	d := parseIOS(t, `hostname edge
interface Serial0
 ip address 10.0.0.1 255.255.255.252
router bgp 65001
 network 10.0.0.0 mask 255.192.0.0
 neighbor 10.0.0.2 remote-as 701
`)
	_, err := Emit(d)
	if err == nil || !strings.Contains(err.Error(), "BGP network statements") {
		t.Errorf("BGP network device: err = %v, want a refusal naming BGP network statements", err)
	}
}

// The dialect round trip: parse a whole generated enterprise (IOS), emit
// every router as JunOS, re-parse, and compare the extracted routing
// designs. Instance structure, external peers, and filter presence must
// survive the translation.
func TestDialectRoundTripInvariance(t *testing.T) {
	g := netgen.GenerateCorpus(2004).ByName("net7") // a pure OSPF+BGP enterprise
	iosNet, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}

	junosNet := &devmodel.Network{Name: "junos-variant"}
	for _, d := range iosNet.Devices {
		out, err := Emit(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Hostname, err)
		}
		res, err := junosparse.Parse(d.Hostname, strings.NewReader(out))
		if err != nil {
			t.Fatalf("%s: re-parse: %v", d.Hostname, err)
		}
		junosNet.Devices = append(junosNet.Devices, res.Device)
	}

	modelOf := func(n *devmodel.Network) *instance.Model {
		return instance.Compute(procgraph.Build(n, topology.Build(n)))
	}
	a := modelOf(iosNet)
	b := modelOf(junosNet)

	if len(a.Instances) != len(b.Instances) {
		for _, in := range b.Instances {
			t.Logf("junos instance: %s size=%d", in.Label(), in.Size())
		}
		t.Fatalf("instance count changed across dialects: %d -> %d", len(a.Instances), len(b.Instances))
	}
	sizes := func(m *instance.Model) []int {
		var out []int
		for _, in := range m.Instances {
			out = append(out, in.Size())
		}
		return out
	}
	sa, sb := sizes(a), sizes(b)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Errorf("instance %d size %d -> %d", i, sa[i], sb[i])
		}
	}
	if len(a.Graph.ExternalNodes()) != len(b.Graph.ExternalNodes()) {
		t.Errorf("external peers changed: %d -> %d",
			len(a.Graph.ExternalNodes()), len(b.Graph.ExternalNodes()))
	}
}

func TestJunosIfaceNameStable(t *testing.T) {
	a := junosIfaceName("Serial1/0.5")
	b := junosIfaceName("Serial1/0.5")
	if a != b {
		t.Error("name mapping must be deterministic")
	}
	if junosIfaceName("Serial1/0") == junosIfaceName("Serial1/1") {
		t.Error("name mapping must be injective for distinct interfaces")
	}
}
