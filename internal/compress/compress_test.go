package compress_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"routinglens/internal/ciscoparse"
	"routinglens/internal/compress"
	"routinglens/internal/core"
	"routinglens/internal/devmodel"
	"routinglens/internal/netaddr"
	"routinglens/internal/netgen"
	"routinglens/internal/reach"
	"routinglens/internal/simroute"
	"routinglens/internal/whatif"
)

const corpusSeed = 2004

// oracleExternal is the external announcement set injected in every
// equivalence check: the default route plus a specific block, at every
// peer (AS 0 = wildcard).
var oracleExternal = []simroute.ExternalRoute{
	{Prefix: netaddr.PrefixFrom(0, 0)},
	{Prefix: netaddr.MustParsePrefix("198.51.100.0/24")},
}

// renderReach serializes every reach query surface for one analysis:
// network-wide views, per-instance IGP load, the policy table, and the
// full per-device routing tables. Two analyses answering all queries
// identically render byte-identically.
func renderReach(a *reach.Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "default=%t\n", a.HasDefaultRoute())
	fmt.Fprintf(&b, "admitted=%v\n", a.AdmittedExternalRoutes())
	ann := a.AnnouncedRoutes()
	ases := make([]uint32, 0, len(ann))
	for as := range ann {
		ases = append(ases, as)
	}
	sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
	for _, as := range ases {
		fmt.Fprintf(&b, "announced[%d]=%v\n", as, ann[as])
	}
	for _, in := range a.Model.Instances {
		fmt.Fprintf(&b, "igpload[%d]=%d\n", in.ID, a.IGPLoad(in))
	}
	for _, row := range a.PolicyTable() {
		fmt.Fprintf(&b, "policy %s %s %v\n", row.Device.Hostname, row.Name, row.Blocks)
	}
	for _, d := range a.Model.Graph.Network.Devices {
		fmt.Fprintf(&b, "rib %s\n", d.Hostname)
		for _, sel := range a.Sim.RouterRoutes(d) {
			fmt.Fprintf(&b, "  %s proto=%s dist=%d tags=%v origins=%v\n",
				sel.Route.Prefix, sel.Proto, sel.Distance,
				sel.Route.Tags, sel.Route.Origins)
		}
		for _, p := range d.Processes {
			fmt.Fprintf(&b, "  proc %s: %d routes", p.Key(), len(a.Sim.ProcRoutes(p)))
			for _, r := range a.Sim.ProcRoutes(p) {
				fmt.Fprintf(&b, " %s", r.Prefix)
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "  ext=%v\n", a.Sim.ExternalRoutesAt(d))
	}
	return b.String()
}

// renderWhatif serializes the complete survivability report.
func renderWhatif(a *whatif.Analysis) string {
	var b strings.Builder
	for _, rf := range a.RouterFailures {
		fmt.Fprintf(&b, "router %d %s pieces=%d\n", rf.Instance.ID, rf.Router.Hostname, rf.Pieces)
	}
	for _, lf := range a.LinkFailures {
		fmt.Fprintf(&b, "link %d %s-%s %s\n", lf.Instance.ID, lf.A.Hostname, lf.B.Hostname, lf.Link)
	}
	for _, br := range a.Bridges {
		fmt.Fprintf(&b, "bridge %d-%d [", br.From.ID, br.To.ID)
		for i, r := range br.Routers {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(r.Hostname)
		}
		b.WriteString("]\n")
	}
	for _, sr := range a.StaticRisks {
		fmt.Fprintf(&b, "static %s [", sr.Prefix)
		for i, r := range sr.Routers {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(r.Hostname)
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func analyzeAt(t *testing.T, g *netgen.Generated, jobs int) *core.Design {
	t.Helper()
	an := core.NewAnalyzer(core.WithParallelism(jobs))
	d, _, err := an.AnalyzeConfigs(context.Background(), g.Name, g.Configs)
	if err != nil {
		t.Fatalf("%s: analyze: %v", g.Name, err)
	}
	return d
}

// checkEquivalence asserts the quotient answers every reach and whatif
// query byte-identically to the full model.
//
// The whatif comparison always runs (it is structural — no simulation).
// The reach comparison needs two full control-plane simulations, so on
// large networks it only runs when the quotient actually merged
// something: an identity quotient dispatches to the very same
// reach.Analyze call as the full analysis, making byte equality
// definitional, while any accidental merge on a large network makes the
// quotient non-identity and triggers the full check — which then fails
// if the merge was wrong.
func checkEquivalence(t *testing.T, name string, d *core.Design) *compress.Quotient {
	t.Helper()
	q := compress.Compute(d.Instances)

	if !q.Identity || len(d.Network.Devices) < 150 {
		fullReach := reach.Analyze(d.Instances, d.AddressSpace, oracleExternal, nil)
		qReach := q.Reach(d.AddressSpace, oracleExternal)
		if got, want := renderReach(qReach), renderReach(fullReach); got != want {
			t.Errorf("%s: quotient reach answers differ from full\nfull:\n%s\nquotient:\n%s",
				name, diffHead(want, got), diffHead(got, want))
		}
	}

	fullWhatif := whatif.Analyze(d.Instances)
	qWhatif := q.Whatif()
	if got, want := renderWhatif(qWhatif), renderWhatif(fullWhatif); got != want {
		t.Errorf("%s: quotient whatif answers differ from full\nfull:\n%s\nquotient:\n%s",
			name, want, got)
	}
	return q
}

// diffHead returns the first few lines where a and b diverge, to keep
// failure output readable on large networks.
func diffHead(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			end := i + 5
			if end > len(al) {
				end = len(al)
			}
			return fmt.Sprintf("(first divergence at line %d)\n%s", i+1, strings.Join(al[i:end], "\n"))
		}
	}
	return "(prefix equal; lengths differ)"
}

// smallestPerKind picks, for every netgen family, its smallest corpus
// network — full-vs-quotient double analysis on the giants (881-router
// net5, 1750-router tier2) belongs in benchmarks, not tier 1.
func smallestPerKind(c *netgen.Corpus) []*netgen.Generated {
	best := make(map[netgen.Kind]*netgen.Generated)
	for _, g := range c.Networks {
		if cur, ok := best[g.Kind]; !ok || g.Routers < cur.Routers {
			best[g.Kind] = g
		}
	}
	out := make([]*netgen.Generated, 0, len(best))
	for _, g := range best {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TestQuotientEquivalenceAcrossKinds is the correctness oracle: for a
// representative of every netgen family, analyzed sequentially and at
// full parallelism, the quotient's expanded reach and whatif answers
// must be byte-identical to the full model's.
func TestQuotientEquivalenceAcrossKinds(t *testing.T) {
	corpus := netgen.GenerateCorpus(corpusSeed)
	jobs := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		jobs = append(jobs, n)
	}
	for _, g := range smallestPerKind(corpus) {
		for _, j := range jobs {
			t.Run(fmt.Sprintf("%s-j%d", g.Name, j), func(t *testing.T) {
				d := analyzeAt(t, g, j)
				q := checkEquivalence(t, g.Name, d)
				st := q.Stats()
				t.Logf("%s (%s): %d routers -> %d classes (%.2fx, identity=%t)",
					g.Name, g.Kind, st.Routers, st.Classes, st.Ratio, st.Identity)
			})
		}
	}
}

// TestQuotientEquivalenceProvider checks the oracle on a small provider
// network — the family built specifically to compress.
func TestQuotientEquivalenceProvider(t *testing.T) {
	g := netgen.GenerateProvider(corpusSeed, 600)
	d := analyzeAt(t, g, runtime.GOMAXPROCS(0))
	q := checkEquivalence(t, g.Name, d)
	st := q.Stats()
	if st.Identity {
		t.Fatalf("provider network compressed to identity: %+v", st)
	}
	if st.Ratio < 5 {
		t.Errorf("provider reduction ratio = %.2f, want >= 5 on a %d-router build", st.Ratio, g.Routers)
	}
	t.Logf("provider: %d routers -> %d classes (%.2fx)", st.Routers, st.Classes, st.Ratio)
}

// TestZeroSymmetryIsIdentity pins the degenerate case: a network with no
// two symmetric routers must quotient to the identity — same class
// count as router count, Reduced == Full, and answers trivially equal —
// rather than taking any lossy fallback.
func TestZeroSymmetryIsIdentity(t *testing.T) {
	cfgs := []string{
		"hostname a\ninterface Serial0\n ip address 10.0.0.1 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n",
		"hostname b\ninterface Serial0\n ip address 10.0.0.2 255.255.255.252\ninterface Serial1\n ip address 10.0.1.1 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n",
		"hostname c\ninterface Serial0\n ip address 10.0.1.2 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n ip route 192.0.2.0 255.255.255.0 10.0.1.1\n",
	}
	n := &devmodel.Network{Name: "asym"}
	for _, c := range cfgs {
		res, err := ciscoparse.Parse("cfg", strings.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		n.Devices = append(n.Devices, res.Device)
	}
	d := core.Analyze(n)
	q := compress.Compute(d.Instances)
	if !q.Identity {
		t.Fatalf("expected identity quotient, got %d classes for %d routers",
			len(q.Classes), len(n.Devices))
	}
	if q.Reduced != q.Full {
		t.Error("identity quotient must alias the full model")
	}
	if len(q.Classes) != len(n.Devices) {
		t.Errorf("classes = %d, want %d", len(q.Classes), len(n.Devices))
	}
	checkEquivalence(t, "asym", d)
}

// TestQuotientDeterministic asserts two independent analyses of the same
// network produce the same class structure (tier 2 reruns this with
// -race -count=3).
func TestQuotientDeterministic(t *testing.T) {
	render := func() string {
		g := netgen.GenerateProvider(corpusSeed, 400)
		d := analyzeAt(t, g, runtime.GOMAXPROCS(0))
		q := compress.Compute(d.Instances)
		var b strings.Builder
		for _, c := range q.Classes {
			fmt.Fprintf(&b, "%s:", c.Rep.Hostname)
			for _, m := range c.Members {
				fmt.Fprintf(&b, " %s", m.Hostname)
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("quotient class structure not deterministic:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}
