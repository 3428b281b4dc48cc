package simroute

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"routinglens/internal/ciscoparse"
	"routinglens/internal/devmodel"
	"routinglens/internal/netaddr"
	"routinglens/internal/paperexample"
	"routinglens/internal/procgraph"
	"routinglens/internal/topology"
)

// Property: injecting more external routes never removes reachability —
// the simulator is monotone in its inputs.
func TestMonotonicity(t *testing.T) {
	n, err := paperexample.BuildEnterprise()
	if err != nil {
		t.Fatal(err)
	}
	g := procgraph.Build(n, topology.Build(n))

	base := []ExternalRoute{
		{Prefix: netaddr.MustParsePrefix("198.51.100.0/24"), AS: paperexample.BackboneAS},
	}
	more := append(append([]ExternalRoute{}, base...),
		ExternalRoute{Prefix: netaddr.MustParsePrefix("203.0.113.0/24"), AS: paperexample.BackboneAS},
		ExternalRoute{Prefix: netaddr.MustParsePrefix("192.0.2.0/24"), AS: paperexample.BackboneAS},
	)

	s1 := New(g, base)
	s1.Run()
	s2 := New(g, more)
	s2.Run()

	for _, d := range n.Devices {
		for _, sel := range s1.RouterRoutes(d) {
			if !s2.HasRoute(d, sel.Route.Prefix) {
				t.Errorf("%s lost route %s when more externals were injected",
					d.Hostname, sel.Route.Prefix)
			}
		}
	}
}

// Property: the simulation is deterministic — two runs over the same graph
// produce identical router RIBs.
func TestDeterminism(t *testing.T) {
	n, err := paperexample.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := procgraph.Build(n, topology.Build(n))
	ext := []ExternalRoute{{Prefix: netaddr.MustParsePrefix("0.0.0.0/0")}}

	snapshot := func() map[string][]string {
		s := New(g, ext)
		s.Run()
		out := make(map[string][]string)
		for _, d := range n.Devices {
			var rs []string
			for _, sel := range s.RouterRoutes(d) {
				rs = append(rs, sel.Route.Prefix.String()+"/"+sel.Proto.String())
			}
			out[d.Hostname] = rs
		}
		return out
	}
	a, b := snapshot(), snapshot()
	for h, ra := range a {
		rb := b[h]
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d routes across runs", h, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: route %d differs: %s vs %s", h, i, ra[i], rb[i])
			}
		}
	}
}

// Property: a route denied by every ingress policy can never appear
// anywhere — filters are sound.
func TestFilterSoundness(t *testing.T) {
	cfgs := []string{
		`hostname border
interface Serial0
 ip address 172.16.0.1 255.255.255.252
interface Serial1
 ip address 10.0.0.1 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
 redistribute bgp 65001 subnets
router bgp 65001
 neighbor 172.16.0.2 remote-as 701
 neighbor 172.16.0.2 distribute-list 10 in
access-list 10 deny 198.51.100.0 0.0.0.255
access-list 10 permit any
`,
		`hostname inner
interface Serial0
 ip address 10.0.0.2 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
`,
	}
	n := &devmodel.Network{Name: "t"}
	for _, c := range cfgs {
		res, err := ciscoparse.Parse("cfg", strings.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		n.Devices = append(n.Devices, res.Device)
	}
	g := procgraph.Build(n, topology.Build(n))
	s := New(g, []ExternalRoute{
		{Prefix: netaddr.MustParsePrefix("198.51.100.0/24"), AS: 701}, // denied
		{Prefix: netaddr.MustParsePrefix("203.0.113.0/24"), AS: 701},  // permitted
	})
	s.Run()
	for _, d := range n.Devices {
		if s.HasRoute(d, netaddr.MustParsePrefix("198.51.100.0/24")) {
			t.Errorf("%s: denied route leaked in", d.Hostname)
		}
	}
	if !s.HasRoute(n.Device("inner"), netaddr.MustParsePrefix("203.0.113.0/24")) {
		t.Error("permitted route should propagate to the interior")
	}
}

// Property: after Run every query only reads, so one Sim serves
// concurrent readers with the answers a lone reader gets (tier 2 runs
// this under -race).
func TestConcurrentQueries(t *testing.T) {
	n, err := paperexample.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := procgraph.Build(n, topology.Build(n))
	def := netaddr.MustParsePrefix("0.0.0.0/0")
	s := New(g, []ExternalRoute{{Prefix: def}})
	s.Run()

	render := func() string {
		var b strings.Builder
		route := func(r *Route) { fmt.Fprintf(&b, " %s%v%v", r.Prefix, r.Tags, r.Origins) }
		for _, d := range n.Devices {
			for _, sel := range s.RouterRoutes(d) {
				route(sel.Route)
				fmt.Fprintf(&b, "/%s/%d", sel.Proto, sel.Distance)
			}
			fmt.Fprint(&b, s.ExternalRoutesAt(d), s.HasRoute(d, def))
			for _, i := range d.Interfaces {
				for _, a := range i.Addrs {
					if sel, p, ok := s.SelectedAt(d, a.Addr+1); ok {
						route(sel.Route)
						fmt.Fprint(&b, p)
					}
					fmt.Fprint(&b, s.CanReach(d, a.Addr+2))
				}
			}
			for _, p := range d.Processes {
				for _, r := range s.ProcRoutes(p) {
					route(r)
					if from := s.LearnedFrom(g.ProcNode(p), r.Prefix); from != nil {
						b.WriteString(from.ID())
					}
				}
			}
		}
		for _, ext := range g.ExternalNodes() {
			fmt.Fprint(&b, s.AnnouncedToExternal(ext))
		}
		return b.String()
	}
	want := render()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := render(); got != want {
				t.Error("a concurrent reader got different answers")
			}
		}()
	}
	wg.Wait()
}
