package simroute_test

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"routinglens/internal/ciscoparse"
	"routinglens/internal/devmodel"
	"routinglens/internal/net15"
	"routinglens/internal/netaddr"
	"routinglens/internal/netgen"
	"routinglens/internal/paperexample"
	"routinglens/internal/procgraph"
	"routinglens/internal/simroute"
	"routinglens/internal/topology"
)

// shardCounts are the shard counts a sharded run is held to the whole
// run at: even, odd, and more shards than the host has cores.
var shardCounts = []int{2, 3, 7}

// TestShardedRunMatchesWhole holds Run's prefix shards to a run on one
// goroutine: on the paper example, every network of the seed-2004
// corpus (each with a default route injected at every external peer),
// net15 under its paper injection and a 600-router provider, runs split
// into 2, 3 and 7 shards must leave every flow-target slot (labels and
// provenance), every local RIB and every external-origin set as the
// whole run does, after as many rounds. It then re-simulates edited
// networks through Reuse: a policy edit that moves every prefix, and a
// static edit that moves one or two. Under -short it keeps the small
// networks and net5.
func TestShardedRunMatchesWhole(t *testing.T) {
	def := []simroute.ExternalRoute{{Prefix: netaddr.PrefixFrom(0, 0)}}
	paper, err := paperexample.Build()
	if err != nil {
		t.Fatal(err)
	}
	build := func(g *netgen.Generated) *devmodel.Network {
		n, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	cases := []refCase{{"paper-example", paper, def}}
	corpus := netgen.GenerateCorpus(2004)
	for _, g := range corpus.Networks {
		if !testing.Short() || g.Name == "net5" || len(g.Configs) <= 40 {
			cases = append(cases, refCase{g.Name, build(g), def})
		}
	}
	cases = append(cases, refCase{"net15-paper-injection", build(corpus.ByName("net15")), net15.ExternalRoutes()})
	if !testing.Short() {
		cases = append(cases, refCase{"provider600", build(netgen.GenerateProvider(1, 600)), def})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := procgraph.Build(c.net, topology.Build(c.net))
			whole := simroute.New(g, c.ext)
			rounds := whole.RunShards(1)
			if c.name == "net5" && rounds != 17 {
				t.Errorf("whole run took %d rounds, want net5's 17", rounds)
			}
			for _, n := range shardCounts {
				compareShards(t, fmt.Sprintf("%d shards", n), n, simroute.New(g, c.ext), whole, rounds)
			}
		})
	}

	for _, name := range []string{"net26", "net19"} {
		t.Run(name+"-reuse", func(t *testing.T) {
			gen := corpus.ByName(name)
			hosts := make([]string, 0, len(gen.Configs))
			for h := range gen.Configs {
				hosts = append(hosts, h)
			}
			sort.Strings(hosts)
			net := newEditable(t, hosts, gen.Configs)
			graph := func() *procgraph.Graph {
				n := net.network()
				return procgraph.Build(n, topology.Build(n))
			}
			prev := simroute.New(graph(), def)
			prev.Run()

			// A new tag on the first route-map that sets one changes a
			// flow policy, so Reuse copies nothing.
			i := slices.IndexFunc(hosts, func(h string) bool { return strings.Contains(net.text[h], " set tag ") })
			if i < 0 {
				t.Fatalf("%s sets no tag", name)
			}
			lines := strings.Split(net.text[hosts[i]], "\n")
			j := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, " set tag ") })
			lines[j] = " set tag 65001"
			net.set(t, hosts[i], strings.Join(lines, "\n"))
			prev = reuseSharded(t, "policy edit", graph(), def, prev, true)

			// A static route on one router moves only its prefix.
			net.set(t, hosts[0], net.text[hosts[0]]+"ip route 198.18.0.1 255.255.255.255 Null0\n")
			reuseSharded(t, "static edit", graph(), def, prev, false)
		})
	}
}

// reuseSharded re-simulates g reusing prev, whole and in every shard
// count, and holds the sharded runs to the whole one. full says whether
// the edit changed how routes flow, so that Reuse must move every
// prefix. It returns the whole run.
func reuseSharded(t *testing.T, what string, g *procgraph.Graph, ext []simroute.ExternalRoute, prev *simroute.Sim, full bool) *simroute.Sim {
	t.Helper()
	whole := simroute.New(g, ext)
	moved := whole.Reuse(prev)
	if full != (moved == whole.Prefixes()) {
		t.Fatalf("%s: Reuse left %d of %d prefixes to simulate", what, moved, whole.Prefixes())
	}
	rounds := whole.RunShards(1)
	for _, n := range shardCounts {
		s := simroute.New(g, ext)
		s.Reuse(prev)
		compareShards(t, fmt.Sprintf("%s, %d shards", what, n), n, s, whole, rounds)
	}
	return whole
}

// compareShards runs s in n shards and reports how its fixpoint and
// round count differ from whole's.
func compareShards(t *testing.T, what string, n int, s, whole *simroute.Sim, rounds int) {
	t.Helper()
	if got := s.RunShards(n); got != rounds {
		t.Errorf("%s: %d rounds, whole run %d", what, got, rounds)
	}
	for _, d := range simroute.FixpointDiff(s, whole, 20) {
		t.Errorf("%s: %s", what, d)
	}
}

// TestShardPanicReachesCaller: a shard runs on a goroutine of its own,
// where no caller's recover reaches. With one flow's target index
// corrupted, every shard panics on its first route over that flow, and
// Run must re-raise the panic on the caller's goroutine once every shard
// has returned, so a reload attempt's recover fails the attempt instead
// of the process dying.
func TestShardPanicReachesCaller(t *testing.T) {
	// b floods its LANs, spread over the address space, and the link
	// into OSPF; every prefix passes through b's OSPF RIB, and from there
	// over the flow into a's.
	b := "hostname b\ninterface Serial0\n ip address 10.0.0.2 255.255.255.252\n"
	for i, lan := range []string{"10.5.0.1", "100.64.0.1", "172.16.0.1", "192.168.0.1", "203.0.113.1"} {
		b += fmt.Sprintf("interface Ethernet%d\n ip address %s 255.255.255.0\n", i, lan)
	}
	b += "router ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n redistribute connected subnets\n"
	a := "hostname a\ninterface Serial0\n ip address 10.0.0.1 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
	n := &devmodel.Network{Name: "broken"}
	for _, cfg := range []string{a, b} {
		res, err := ciscoparse.Parse("cfg", strings.NewReader(cfg))
		if err != nil {
			t.Fatal(err)
		}
		n.Devices = append(n.Devices, res.Device)
	}
	g := procgraph.Build(n, topology.Build(n))
	for _, shards := range shardCounts {
		before := runtime.NumGoroutine()
		s := simroute.New(g, nil)
		s.BreakFlowFrom(g.ProcNode(n.Device("b").Process("ospf 1")))
		p := func() (p any) {
			defer func() { p = recover() }()
			s.RunShards(shards)
			return nil
		}()
		err, ok := p.(runtime.Error)
		if !ok || !strings.Contains(err.Error(), "index out of range") {
			t.Fatalf("%d shards: recovered %v, want the shards' index-out-of-range panic", shards, p)
		}
		// Every shard has returned; its goroutine exits right after.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d shards: %d goroutines after the panic, %d before", shards, after, before)
		}
	}
}
