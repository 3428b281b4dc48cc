package trace

import (
	"fmt"
	"strings"
	"testing"

	"routinglens/internal/ciscoparse"
	"routinglens/internal/devmodel"
	"routinglens/internal/net15"
	"routinglens/internal/netaddr"
	"routinglens/internal/paperexample"
	"routinglens/internal/procgraph"
	"routinglens/internal/simroute"
	"routinglens/internal/topology"
)

func tracerFor(t *testing.T, n *devmodel.Network, ext []simroute.ExternalRoute) *Tracer {
	t.Helper()
	g := procgraph.Build(n, topology.Build(n))
	s := simroute.New(g, ext)
	s.Run()
	return New(s)
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

// Linear chain a-b-c: a trace from a to c's LAN walks the chain. Built
// 70 routers long, the chain is longer than maxHops: the trace ends
// truncated after 64 forward hops, on a router it never revisited.
func TestChainTrace(t *testing.T) {
	n := parseNet(t,
		`hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.255.255 area 0
`,
		`hostname b
interface Serial0
 ip address 10.0.0.2 255.255.255.252
interface Serial1
 ip address 10.0.1.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.255.255 area 0
`,
		`hostname c
interface Serial0
 ip address 10.0.1.2 255.255.255.252
interface Ethernet0
 ip address 10.50.0.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.0.255.255 area 0
 redistribute connected subnets
`)
	tr := tracerFor(t, n, nil)
	p, err := tr.Trace("a", netaddr.MustParseAddr("10.50.0.99"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome() != HopDelivered {
		t.Fatalf("outcome = %v\n%s", p.Outcome(), p)
	}
	var hosts []string
	for _, h := range p.Hops {
		hosts = append(hosts, h.Device.Hostname)
	}
	got := strings.Join(hosts, ">")
	if got != "a>b>c" {
		t.Errorf("path = %s, want a>b>c\n%s", got, p)
	}

	const routers = 70
	cfgs := make([]string, routers)
	for i := range cfgs {
		var b strings.Builder
		fmt.Fprintf(&b, "hostname r%d\n", i)
		if i > 0 {
			fmt.Fprintf(&b, "interface Serial0\n ip address 10.0.%d.2 255.255.255.252\n", i-1)
		}
		if i < routers-1 {
			fmt.Fprintf(&b, "interface Serial1\n ip address 10.0.%d.1 255.255.255.252\n", i)
		} else {
			b.WriteString("interface Ethernet0\n ip address 10.50.0.1 255.255.255.0\n")
		}
		b.WriteString("router ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n redistribute connected subnets\n")
		cfgs[i] = b.String()
	}
	p, err = tracerFor(t, parseNet(t, cfgs...), nil).Trace("r0", netaddr.MustParseAddr("10.50.0.99"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != maxHops+1 || p.Outcome() != HopTruncated || p.Hops[maxHops].Device.Hostname != "r64" {
		t.Fatalf("70-router chain: %d hops ending %v, want %d forward hops then truncated at r64\n%s",
			len(p.Hops), p.Outcome(), maxHops, p)
	}
	for i, h := range p.Hops[:maxHops] {
		if h.Kind != HopForward || h.Device.Hostname != fmt.Sprintf("r%d", i) {
			t.Fatalf("70-router chain: hop %d is %s %v, want r%d forward\n%s", i+1, h.Device.Hostname, h.Kind, i, p)
		}
	}
}

func TestBlackhole(t *testing.T) {
	n := parseNet(t, "hostname a\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n")
	tr := tracerFor(t, n, nil)
	p, err := tr.Trace("a", netaddr.MustParseAddr("203.0.113.1"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome() != HopBlackhole {
		t.Errorf("outcome = %v", p.Outcome())
	}
	if !strings.Contains(p.String(), "blackhole") {
		t.Errorf("render = %q", p.String())
	}
}

func TestDeliveredOnOwnSubnet(t *testing.T) {
	n := parseNet(t, "hostname a\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n")
	tr := tracerFor(t, n, nil)
	p, err := tr.Trace("a", netaddr.MustParseAddr("10.0.0.55"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome() != HopDelivered || len(p.Hops) != 1 {
		t.Errorf("path = %s", p)
	}
}

func TestStaticNextHop(t *testing.T) {
	n := parseNet(t,
		`hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
ip route 10.50.0.0 255.255.255.0 10.0.0.2
`,
		`hostname b
interface Serial0
 ip address 10.0.0.2 255.255.255.252
interface Ethernet0
 ip address 10.50.0.1 255.255.255.0
`)
	tr := tracerFor(t, n, nil)
	p, err := tr.Trace("a", netaddr.MustParseAddr("10.50.0.9"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome() != HopDelivered {
		t.Fatalf("outcome = %v\n%s", p.Outcome(), p)
	}
	if p.Hops[0].Proto != devmodel.ProtoStatic || p.Hops[1].Device.Hostname != "b" {
		t.Errorf("path = %s", p)
	}
}

func TestStaticToUnknownNextHopIsExternal(t *testing.T) {
	n := parseNet(t,
		`hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
ip route 0.0.0.0 0.0.0.0 10.0.0.2
`)
	tr := tracerFor(t, n, nil)
	p, err := tr.Trace("a", netaddr.MustParseAddr("8.8.8.8"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome() != HopExternal {
		t.Errorf("outcome = %v\n%s", p.Outcome(), p)
	}
}

// External route injected at the backbone's peer: a trace from the
// enterprise leaf exits the corpus at the border.
func TestTraceToExternalDestination(t *testing.T) {
	n, err := paperexample.BuildEnterprise()
	if err != nil {
		t.Fatal(err)
	}
	ext := []simroute.ExternalRoute{
		{Prefix: netaddr.MustParsePrefix("198.51.100.0/24"), AS: paperexample.BackboneAS},
	}
	tr := tracerFor(t, n, ext)
	p, err := tr.Trace("r1", netaddr.MustParseAddr("198.51.100.7"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome() != HopExternal {
		t.Fatalf("outcome = %v\n%s", p.Outcome(), p)
	}
	last := p.Hops[len(p.Hops)-1]
	if last.Device.Hostname != "r2" {
		t.Errorf("exit router = %s, want the border r2\n%s", last.Device.Hostname, p)
	}
}

// net15: tracing from a left-site interior router to a right-site host
// must blackhole (the sites are partitioned by policy).
func TestNet15PartitionVisibleInTrace(t *testing.T) {
	n, err := net15.Build(net15.Params{RoutersPerSite: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := tracerFor(t, n, net15.ExternalRoutes())
	p, err := tr.Trace("l2", netaddr.Addr(uint32(net15.AB4.Addr())+258)) // a right-site host
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome() != HopBlackhole {
		t.Errorf("cross-site trace should blackhole, got %v\n%s", p.Outcome(), p)
	}
	// But an admitted destination exits at the border.
	p2, err := tr.Trace("l2", netaddr.Addr(uint32(net15.AB0.Addr())+7))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Outcome() != HopExternal {
		t.Errorf("admitted destination should exit externally, got %v\n%s", p2.Outcome(), p2)
	}
}

func TestHopKindStrings(t *testing.T) {
	want := map[HopKind]string{
		HopForward: "forward", HopDelivered: "delivered",
		HopExternal: "external", HopBlackhole: "blackhole", HopLoop: "loop",
		HopTruncated: "truncated", HopKind(99): "?",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("HopKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	empty := &Path{}
	if empty.Outcome() != HopBlackhole {
		t.Error("empty path outcome should be blackhole")
	}
}

// Two routers pointing default routes at each other: the trace must
// terminate with a loop verdict, not hang.
func TestRoutingLoopDetected(t *testing.T) {
	n := parseNet(t,
		`hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
ip route 0.0.0.0 0.0.0.0 10.0.0.2
`,
		`hostname b
interface Serial0
 ip address 10.0.0.2 255.255.255.252
ip route 0.0.0.0 0.0.0.0 10.0.0.1
`)
	tr := tracerFor(t, n, nil)
	p, err := tr.Trace("a", netaddr.MustParseAddr("8.8.8.8"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome() != HopLoop {
		t.Errorf("outcome = %v, want loop\n%s", p.Outcome(), p)
	}
	if !strings.Contains(p.String(), "loop") {
		t.Errorf("render = %q", p.String())
	}
}

// Destination is an interface address of a mid-path router.
func TestTraceToRouterOwnAddress(t *testing.T) {
	n := parseNet(t,
		`hostname a
interface Serial0
 ip address 10.0.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.255.255 area 0
`,
		`hostname b
interface Serial0
 ip address 10.0.0.2 255.255.255.252
interface Loopback0
 ip address 10.9.9.9 255.255.255.255
router ospf 1
 network 10.0.0.0 0.0.255.255 area 0
 network 10.9.9.9 0.0.0.0 area 0
`)
	tr := tracerFor(t, n, nil)
	p, err := tr.Trace("a", netaddr.MustParseAddr("10.9.9.9"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Outcome() != HopDelivered {
		t.Fatalf("outcome = %v\n%s", p.Outcome(), p)
	}
	last := p.Hops[len(p.Hops)-1]
	if last.Device.Hostname != "b" {
		t.Errorf("delivered at %s, want b\n%s", last.Device.Hostname, p)
	}
}

func TestTraceUnknownSource(t *testing.T) {
	n := parseNet(t, "hostname a\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n")
	tr := tracerFor(t, n, nil)
	if _, err := tr.Trace("zzz", netaddr.MustParseAddr("10.0.0.1")); err == nil {
		t.Error("expected error for unknown source")
	}
}
