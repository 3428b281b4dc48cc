package simroute_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

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

// editKinds are the configuration changes TestReuseMatchesFresh draws
// from, grouped by what Reuse must make of them.
var (
	staticEdits = []string{"static-add", "static-replace", "static-remove"}
	policyEdits = []string{"set-tag", "match-tag", "acl"}
	redistEdits = []string{"redist-add", "redist-remove"}
	editKinds   = slices.Concat(staticEdits, policyEdits, redistEdits,
		[]string{"shutdown", "unshut", "address", "noop"})
)

// editable is one network under edit: its routers' configuration texts
// and parsed devices. An edit re-parses only the router it changes, so
// every other device keeps its pointer from one step to the next, as the
// parse cache keeps it across rlensd's reloads.
type editable struct {
	hosts []string // in device order
	text  map[string]string
	dev   map[string]*devmodel.Device
	fresh int // addresses handed out so far
}

func newEditable(t *testing.T, hosts []string, text map[string]string) *editable {
	t.Helper()
	e := &editable{hosts: hosts, text: make(map[string]string), dev: make(map[string]*devmodel.Device)}
	for _, h := range hosts {
		e.set(t, h, text[h])
	}
	return e
}

// set parses the router's new configuration text.
func (e *editable) set(t *testing.T, host, text string) {
	t.Helper()
	res, err := ciscoparse.Parse(host+".cfg", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	e.text[host], e.dev[host] = text, res.Device
}

func (e *editable) network() *devmodel.Network {
	n := &devmodel.Network{Name: "edited"}
	for _, h := range e.hosts {
		n.Devices = append(n.Devices, e.dev[h])
	}
	return n
}

// nextFresh returns an address in 198.18.0.0/15, which no corpus network
// uses, that no earlier edit used.
func (e *editable) nextFresh() string {
	e.fresh++
	return fmt.Sprintf("198.%d.%d.%d", 18+e.fresh>>16&1, e.fresh>>8&255, e.fresh&255)
}

// edit rewrites the lines of one router's configuration for one kind of
// change, reporting false when the router has nothing to change that way.
func (e *editable) edit(rng *rand.Rand, kind, text string) (string, bool) {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	with := func(prefix string) []int {
		var out []int
		for i, l := range lines {
			if strings.HasPrefix(l, prefix) {
				out = append(out, i)
			}
		}
		return out
	}
	pick := func(idx []int) int { return idx[rng.IntN(len(idx))] }
	replace := func(i int, l string) { lines[i] = l }
	remove := func(i int) { lines = slices.Delete(lines, i, i+1) }
	insert := func(i int, l string) { lines = slices.Insert(lines, i, l) }
	route := func() string { return "ip route " + e.nextFresh() + " 255.255.255.255 Null0" }
	switch kind {
	case "noop":
	case "static-add":
		lines = append(lines, route())
	case "static-replace", "static-remove":
		idx := with("ip route ")
		if len(idx) == 0 {
			return "", false
		}
		if i := pick(idx); kind == "static-remove" {
			remove(i)
		} else {
			replace(i, route())
		}
	case "shutdown":
		var idx []int
		for _, i := range with("interface ") {
			if i+1 >= len(lines) || lines[i+1] != " shutdown" {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return "", false
		}
		insert(pick(idx)+1, " shutdown")
	case "unshut":
		idx := with(" shutdown")
		if len(idx) == 0 {
			return "", false
		}
		remove(pick(idx))
	case "address":
		idx := with(" ip address ")
		if len(idx) == 0 {
			return "", false
		}
		replace(pick(idx), " ip address "+e.nextFresh()+" 255.255.255.0")
	case "set-tag":
		idx := with(" set tag ")
		if len(idx) == 0 {
			return "", false
		}
		replace(pick(idx), fmt.Sprintf(" set tag %d", 50000+e.fresh))
		e.fresh++
	case "match-tag":
		idx := with(" match tag ")
		if len(idx) == 0 {
			return "", false
		}
		i := pick(idx)
		replace(i, fmt.Sprintf("%s %d", lines[i], 50000+e.fresh))
		e.fresh++
	case "acl":
		var names []string
		for _, l := range lines {
			if f := strings.Fields(l); len(f) >= 2 {
				if j := slices.Index(f, "distribute-list"); j >= 0 && j+1 < len(f) {
					names = append(names, f[j+1])
				}
			}
		}
		if len(names) == 0 {
			return "", false
		}
		name := names[rng.IntN(len(names))]
		at := len(lines)
		if idx := with("access-list " + name + " "); len(idx) > 0 {
			at = idx[0]
		}
		insert(at, fmt.Sprintf("access-list %s deny %s 0.0.0.255", name, e.nextFresh()))
	case "redist-add":
		idx := slices.Concat(with("router ospf"), with("router eigrp"), with("router rip"), with("router bgp"))
		if len(idx) == 0 {
			return "", false
		}
		insert(pick(idx)+1, " redistribute static")
	case "redist-remove":
		idx := with(" redistribute ")
		if len(idx) == 0 {
			return "", false
		}
		remove(pick(idx))
	default:
		panic("unknown edit " + kind)
	}
	return strings.Join(lines, "\n") + "\n", true
}

// policyScoped reports whether some flow's policy is evaluated on the
// device: an adjacency or redistribution edge with a route-map or a
// distribute list whose destination, or else source, is on it.
func policyScoped(g *procgraph.Graph, d *devmodel.Device) bool {
	for _, e := range g.Edges {
		if e.Kind == procgraph.Selection || e.RouteMap == "" && len(e.DistributeLists) == 0 {
			continue
		}
		scope := e.To.Device
		if scope == nil {
			scope = e.From.Device
		}
		if scope == d {
			return true
		}
	}
	return false
}

func redistributions(g *procgraph.Graph) int {
	n := 0
	for _, e := range g.Edges {
		if e.Kind == procgraph.Redistribution {
			n++
		}
	}
	return n
}

// reuseCase is one network TestReuseMatchesFresh edits, with its
// injection and how many edits it applies.
type reuseCase struct {
	name  string
	hosts []string
	text  map[string]string
	ext   []simroute.ExternalRoute
	steps int
}

// TestReuseMatchesFresh applies random edit sequences to
// TestMatchesReference's networks: statics added, replaced and removed,
// interfaces shut, unshut and renumbered, route-map tags set and matched,
// distribute-list ACLs changed, redistributions added and removed, and
// no-ops. After each edit one Sim reuses the previous step's reusing Sim,
// as a reload reuses the serving generation, and must answer every
// question compareWithReference asks exactly as a fresh Sim does. Reuse
// must simulate no prefix after a no-op, at most two after a static edit,
// and every prefix after a policy or redistribution edit that changed a
// flow.
func TestReuseMatchesFresh(t *testing.T) {
	def := []simroute.ExternalRoute{{Prefix: netaddr.PrefixFrom(0, 0)}}
	paper := append(slices.Clone(paperexample.EnterpriseHosts), paperexample.BackboneHosts...)
	// Small networks try every kind of edit; the 460- to 881-router ones
	// six in a row, which keeps the test to seconds.
	all := len(editKinds)
	cases := []reuseCase{{"paper-example", paper, paperexample.Configs(), def, all}}
	corpus := netgen.GenerateCorpus(2004)
	gen := func(name string, g *netgen.Generated, ext []simroute.ExternalRoute, steps int) reuseCase {
		hosts := make([]string, 0, len(g.Configs))
		for h := range g.Configs {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		return reuseCase{name, hosts, g.Configs, ext, steps}
	}
	n15 := corpus.ByName("net15")
	cases = append(cases,
		gen("net15", n15, def, all),
		gen("net15-paper-injection", n15, net15.ExternalRoutes(), all))
	for _, name := range []string{"net5", "net1", "net6", "net13", "net26", "net30", "net31"} {
		steps := all
		if len(corpus.ByName(name).Configs) > 400 {
			steps = 6
		}
		cases = append(cases, gen(name, corpus.ByName(name), def, steps))
	}
	cases = append(cases, gen("provider600", netgen.GenerateProvider(1, 600), def, 6))
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) { reuseEdits(t, c, rand.New(rand.NewPCG(2004, uint64(i)))) })
	}
}

func reuseEdits(t *testing.T, c reuseCase, rng *rand.Rand) {
	net := newEditable(t, c.hosts, c.text)
	build := func() *procgraph.Graph {
		n := net.network()
		return procgraph.Build(n, topology.Build(n))
	}
	g := build()
	prev := simroute.New(g, c.ext)
	prev.Run()
	// The kinds rotate from a random start, so a network with as many
	// steps as kinds tries each once; a kind no router can apply is
	// skipped (a static route can always be added, so one applies).
	tried := rng.IntN(len(editKinds))
	for step := 0; step < c.steps; step++ {
		var kind, host, text string
		for ok := false; !ok; tried++ {
			kind = editKinds[tried%len(editKinds)]
			first := rng.IntN(len(c.hosts))
			for i := 0; !ok && i < len(c.hosts); i++ {
				host = c.hosts[(first+i)%len(c.hosts)]
				text, ok = net.edit(rng, kind, net.text[host])
			}
		}
		prevRedist := redistributions(g)
		net.set(t, host, text)
		g = build()
		what := fmt.Sprintf("step %d: %s on %s", step, kind, host)

		fresh := simroute.New(g, c.ext)
		fresh.Run()
		sim := simroute.New(g, c.ext)
		moved := sim.Reuse(prev)
		sim.Run()
		switch {
		case kind == "noop" && moved != 0:
			t.Errorf("%s: Reuse left %d prefixes to simulate, want 0", what, moved)
		case slices.Contains(staticEdits, kind) && moved > 2:
			t.Errorf("%s: Reuse left %d prefixes to simulate, want at most 2", what, moved)
		case slices.Contains(policyEdits, kind) && policyScoped(g, net.dev[host]) && moved != fresh.Prefixes(),
			slices.Contains(redistEdits, kind) && redistributions(g) != prevRedist && moved != fresh.Prefixes():
			t.Errorf("%s: Reuse left %d of %d prefixes to simulate, want all", what, moved, fresh.Prefixes())
		}
		n := net.network()
		lookups := n.Devices
		if len(lookups) > maxSwept {
			lookups = []*devmodel.Device{net.dev[host]}
			for _, i := range rng.Perm(len(n.Devices))[:maxSwept-1] {
				lookups = append(lookups, n.Devices[i])
			}
		}
		t.Run(fmt.Sprintf("step%d-%s", step, kind), func(t *testing.T) { compareSims(t, n, lookups, sim, fresh, c.ext) })
		prev = sim
	}
}

// maxSwept bounds the devices a step sweeps with exact and
// longest-prefix lookups: on a large network, the edited router and
// others drawn afresh each step.
const maxSwept = 40

// compareSims asks got and want, two simulations of one graph, every
// question compareWithReference asks and reports each answer that
// differs. Every device's process and router RIBs, external routes and
// provenance are compared in full; the exact and longest-prefix lookups
// (HasRoute over every prefix, SelectedAt and CanReach at every
// interface address and the one after it) sweep the lookups devices.
// Equal router RIBs already fix those lookups' answers on every device;
// sweeping them all would multiply the test's time by the router count.
func compareSims(t *testing.T, n *devmodel.Network, lookups []*devmodel.Device, got, want *simroute.Sim, ext []simroute.ExternalRoute) {
	t.Helper()
	mismatches := 0
	report := func(what string, got, want any) {
		t.Helper()
		if mismatches++; mismatches <= 20 {
			t.Errorf("%s:\n got  %v\n want %v", what, got, want)
		}
	}
	defer func() {
		if mismatches > 20 {
			t.Errorf("%d more mismatches", mismatches-20)
		}
	}()

	g := want.Graph
	var universe []netaddr.Prefix
	seen := map[netaddr.Prefix]bool{}
	add := func(p netaddr.Prefix) {
		if !seen[p] {
			seen[p] = true
			universe = append(universe, p)
		}
	}
	for _, e := range ext {
		add(e.Prefix)
	}
	learned := func(node *procgraph.Node, p netaddr.Prefix) {
		if got, want := got.LearnedFrom(node, p), want.LearnedFrom(node, p); got != want {
			report(fmt.Sprintf("LearnedFrom(%s, %s)", node.ID(), p), nodeID(got), nodeID(want))
		}
	}
	for _, node := range g.ExternalNodes() {
		gotAnn, wantAnn := got.AnnouncedToExternal(node), want.AnnouncedToExternal(node)
		if !slices.Equal(gotAnn, wantAnn) {
			report("AnnouncedToExternal("+node.ID()+")", gotAnn, wantAnn)
		}
		for _, p := range wantAnn {
			learned(node, p)
		}
	}
	var probes []netaddr.Addr
	for _, d := range n.Devices {
		for _, i := range d.Interfaces {
			for _, a := range i.Addrs {
				probes = append(probes, a.Addr, a.Addr+1)
			}
		}
	}
	slices.Sort(probes)
	probes = slices.Compact(probes)

	sameRoute := func(a, b *simroute.Route) bool {
		return a.Prefix == b.Prefix && slices.Equal(a.Tags, b.Tags) && slices.Equal(a.Origins, b.Origins)
	}
	sameSelected := func(a, b simroute.Selected) bool {
		return a.Proto == b.Proto && a.Distance == b.Distance && sameRoute(a.Route, b.Route)
	}
	for _, d := range n.Devices {
		for _, p := range d.Processes {
			gotR, wantR := got.ProcRoutes(p), want.ProcRoutes(p)
			if len(gotR) != len(wantR) {
				report(fmt.Sprintf("ProcRoutes(%s %s) length", d.Hostname, p.Key()), len(gotR), len(wantR))
				continue
			}
			for i := range gotR {
				if !sameRoute(gotR[i], wantR[i]) {
					report(fmt.Sprintf("ProcRoutes(%s %s)[%d]", d.Hostname, p.Key(), i), *gotR[i], *wantR[i])
				}
				learned(g.ProcNode(p), wantR[i].Prefix)
			}
		}
		gotR, wantR := got.RouterRoutes(d), want.RouterRoutes(d)
		if len(gotR) != len(wantR) {
			report("RouterRoutes("+d.Hostname+") length", len(gotR), len(wantR))
		} else {
			for i := range gotR {
				if !sameSelected(gotR[i], wantR[i]) {
					report(fmt.Sprintf("RouterRoutes(%s)[%d]", d.Hostname, i), gotR[i], wantR[i])
				}
			}
		}
		for _, sel := range wantR {
			add(sel.Route.Prefix)
		}
		if gotX, wantX := got.ExternalRoutesAt(d), want.ExternalRoutesAt(d); !slices.Equal(gotX, wantX) {
			report("ExternalRoutesAt("+d.Hostname+")", gotX, wantX)
		}
	}
	for _, d := range lookups {
		for _, p := range universe {
			if gotH, wantH := got.HasRoute(d, p), want.HasRoute(d, p); gotH != wantH {
				report(fmt.Sprintf("HasRoute(%s, %s)", d.Hostname, p), gotH, wantH)
			}
		}
		for _, a := range probes {
			gotSel, gotPfx, gotOK := got.SelectedAt(d, a)
			wantSel, wantPfx, wantOK := want.SelectedAt(d, a)
			if gotOK != wantOK || gotOK && (gotPfx != wantPfx || !sameSelected(gotSel, wantSel)) {
				report(fmt.Sprintf("SelectedAt(%s, %s)", d.Hostname, a), gotPfx, wantPfx)
			}
			if gotC, wantC := got.CanReach(d, a), want.CanReach(d, a); gotC != wantC {
				report(fmt.Sprintf("CanReach(%s, %s)", d.Hostname, a), gotC, wantC)
			}
		}
	}
}
