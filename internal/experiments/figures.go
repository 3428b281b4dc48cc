package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"routinglens/internal/addrspace"
	"routinglens/internal/devmodel"
	"routinglens/internal/filters"
	"routinglens/internal/instance"
	"routinglens/internal/net15"
	"routinglens/internal/netaddr"
	"routinglens/internal/paperexample"
	"routinglens/internal/pathway"
	"routinglens/internal/procgraph"
	"routinglens/internal/reach"
	"routinglens/internal/report"
	"routinglens/internal/stats"
	"routinglens/internal/topology"
)

// Figure4 reproduces the configuration-file size distribution of net5:
// hundreds of commands per router on average, with a heavy tail.
func Figure4(ws *Workspace) Result {
	res := Result{ID: "F4", Title: "Size distribution of net5 configuration files (Figure 4)"}
	na := ws.ByName("net5")
	var sizes []float64
	for _, d := range na.Net.Devices {
		sizes = append(sizes, float64(d.RawLines))
	}
	c := stats.NewCDF(sizes)
	mean := stats.Mean(sizes)
	max := c.Quantile(1)
	res.Body = fmt.Sprintf("routers: %d\nmean lines: %.0f (paper: 270)\nmedian: %.0f\np90: %.0f\nmax: %.0f (paper: ~1900)\n%s",
		len(sizes), mean, c.Quantile(0.5), c.Quantile(0.9), max,
		report.CDFPlot(c, "config lines", 40))
	res.claim(len(sizes) == 881, "net5 has 881 routers (measured %d)", len(sizes))
	res.claim(mean > 100 && mean < 500, "mean config size is a few hundred lines (measured %.0f, paper 270)", mean)
	res.claim(max >= 4*mean, "the distribution has a long tail (max %.0f >= 4x mean)", max)
	return res
}

// Figure5 reproduces the routing process graph and routing instance graph
// of the paper's running example (Figures 5 and 6).
func Figure5(ws *Workspace) Result {
	res := Result{ID: "F5/F6", Title: "Process and instance graphs of the running example (Figures 5-6)"}
	n, err := paperexample.Build()
	if err != nil {
		res.claim(false, "example build failed: %v", err)
		return res
	}
	g := procgraph.Build(n, topology.Build(n))
	m := instance.Compute(g)

	t := report.NewTable("instance", "protocol", "routers")
	labels := make(map[string]int)
	for _, in := range m.Instances {
		labels[in.Label()] = in.Size()
		t.Addf("%d %s\t%s\t%d", in.ID, in.Label(), in.Protocol, in.Size())
	}
	edges := report.NewTable("from", "to", "kind", "policies")
	for _, e := range m.Edges {
		from, to := "External World", "External World"
		if e.From != nil {
			from = e.From.Label()
		}
		if e.To != nil {
			to = e.To.Label()
		}
		edges.Addf("%s\t%s\t%s\t%s", from, to, e.Kind.String(), join(e.Policies()))
	}
	res.Body = t.String() + "\n" + edges.String()

	res.claim(len(g.ProcNodes()) == 11, "11 routing-process RIBs across six routers (measured %d)", len(g.ProcNodes()))
	res.claim(len(m.Instances) == 5, "five routing instances as in Figure 5 (measured %d)", len(m.Instances))
	want := map[string]int{"ospf 64": 2, "ospf 128": 2, "BGP AS 64780": 1, "ospf 100": 3, "BGP AS 12762": 3}
	ok := true
	for label, size := range want {
		if labels[label] != size {
			ok = false
		}
	}
	res.claim(ok, "instance membership matches Figure 5 (%v)", labels)
	return res
}

// Figure7 reproduces the canonical route pathway graphs: the enterprise
// pathway passes through a redistribution layer; the backbone pathway keeps
// external routes inside BGP.
func Figure7(ws *Workspace) Result {
	res := Result{ID: "F7", Title: "Canonical route pathways: enterprise vs backbone (Figure 7)"}

	ent, err := paperexample.BuildEnterprise()
	if err != nil {
		res.claim(false, "enterprise build failed: %v", err)
		return res
	}
	em := instance.Compute(procgraph.Build(ent, topology.Build(ent)))
	entPath, err := pathway.Compute(em, "r1")
	if err != nil {
		res.claim(false, "enterprise pathway failed: %v", err)
		return res
	}

	bb, err := paperexample.BuildBackbone()
	if err != nil {
		res.claim(false, "backbone build failed: %v", err)
		return res
	}
	bm := instance.Compute(procgraph.Build(bb, topology.Build(bb)))
	bbPath, err := pathway.Compute(bm, "r5")
	if err != nil {
		res.claim(false, "backbone pathway failed: %v", err)
		return res
	}

	res.Body = entPath.String() + "\n" + bbPath.String()

	res.claim(entPath.ReachesExternal && entPath.MaxDepth() == 3,
		"enterprise router learns external routes through IGP <- BGP <- world (depth %d)", entPath.MaxDepth())
	redis := 0
	for _, e := range entPath.Edges {
		if e.Kind == instance.EdgeRedistribution {
			redis++
		}
	}
	res.claim(redis > 0, "the enterprise pathway includes redistribution (measured %d edges)", redis)
	bbRedis := 0
	for _, e := range bbPath.Edges {
		if e.Kind == instance.EdgeRedistribution {
			bbRedis++
		}
	}
	res.claim(bbPath.ReachesExternal && bbRedis == 0 && len(bbPath.Feeders) == 2,
		"the backbone router learns external routes via BGP only, no redistribution (feeders %d, redist %d)",
		len(bbPath.Feeders), bbRedis)
	return res
}

// Figure8 reproduces the network-size comparison: the 31 studied networks
// against a 2,400-network repository, with the study slightly overweighting
// networks of more than 20 routers.
func Figure8(ws *Workspace) Result {
	res := Result{ID: "F8", Title: "Size of analyzed networks vs the known repository (Figure 8)"}

	study := stats.NewDoublingHistogram(10, 1280)
	for _, na := range ws.Nets {
		study.Add(na.Gen.Routers)
	}
	repo := stats.NewDoublingHistogram(10, 1280)
	for _, s := range repositorySizes(2400) {
		repo.Add(s)
	}

	res.Body = "study networks (31):\n" + report.Histogram(study.Buckets(), 40) +
		"repository model (2400):\n" + report.Histogram(repo.Buckets(), 40)

	sb, rb := study.Buckets(), repo.Buckets()
	res.claim(rb[0].Fraction > sb[0].Fraction,
		"the repository is dominated by small networks more than the study (repo <10: %.2f, study: %.2f)",
		rb[0].Fraction, sb[0].Fraction)
	studyOver20, repoOver20 := 0.0, 0.0
	for i := 2; i < len(sb); i++ {
		studyOver20 += sb[i].Fraction
		repoOver20 += rb[i].Fraction
	}
	res.claim(studyOver20 > repoOver20,
		"the study overweights networks with more than 20 routers (%.2f vs %.2f)", studyOver20, repoOver20)
	res.claim(sb[len(sb)-1].Count > 0, "the study includes networks beyond 1280 routers")
	return res
}

// repositorySizes deterministically models the size distribution of the
// 2,400-network repository: log-normal-ish, dominated by small networks.
func repositorySizes(n int) []int {
	rng := rand.New(rand.NewSource(1984))
	out := make([]int, n)
	for i := range out {
		// ln(size) ~ N(1.9, 1.5) gives a median near 7 routers with a
		// long tail into the thousands, matching Figure 8's shape.
		size := int(math.Exp(1.9 + 1.5*rng.NormFloat64()))
		if size < 1 {
			size = 1
		}
		if size > 3000 {
			size = 3000
		}
		out[i] = size
	}
	return out
}

// Figure9 reproduces the routing instance graph of net5's three
// compartments.
func Figure9(ws *Workspace) Result {
	res := Result{ID: "F9", Title: "Routing design of net5's compartments (Figure 9)"}
	m := ws.ByName("net5").Model

	t := report.NewTable("instance", "routers", "external peers")
	bigEIGRP := map[int]bool{}
	for _, in := range m.Instances {
		if in.Size() >= 3 || in.Protocol == devmodel.ProtoBGP {
			t.Addf("%s\t%d\t%d", in.Label(), in.Size(), in.ExternalPeers)
		}
		if in.Protocol == devmodel.ProtoEIGRP && in.Size() > 1 {
			bigEIGRP[in.Size()] = true
		}
	}
	res.Body = t.String()

	res.claim(bigEIGRP[445] && bigEIGRP[64] && bigEIGRP[32],
		"the three EIGRP compartments hold 445, 64, and 32 routers")
	asns := make(map[uint32]bool)
	for _, in := range m.InstancesOf(devmodel.ProtoBGP) {
		asns[in.ASN] = true
	}
	res.claim(asns[65001] && asns[65010] && asns[65040] && asns[10436],
		"the four bridging BGP ASes of Figure 9 exist (65001, 65010, 65040, 10436)")
	// EBGP as an intra-domain protocol between instances 2 and 3.
	intraEBGP := false
	for _, e := range m.Edges {
		if e.Kind == instance.EdgeEBGP && e.From != nil && e.To != nil {
			if (e.From.ASN == 65040 && e.To.ASN == 65010) || (e.From.ASN == 65010 && e.To.ASN == 65040) {
				intraEBGP = true
			}
		}
	}
	res.claim(intraEBGP, "EBGP bridges AS 65010 and AS 65040 inside the network")
	return res
}

// Figure10 reproduces the route pathway graph of a router in the middle of
// net5: external routes pass through at least three layers of routing
// protocols and redistributions before reaching it.
func Figure10(ws *Workspace) Result {
	res := Result{ID: "F10", Title: "Route pathway of a mid-net5 router (Figure 10)"}
	m := ws.ByName("net5").Model

	// Pick a compartment-A router with no BGP process of its own.
	var target string
	for _, d := range ws.ByName("net5").Net.Devices {
		if d.Hostname[0] != 'r' {
			continue
		}
		if len(d.ProcessesOf(devmodel.ProtoBGP)) == 0 && len(d.Processes) > 0 {
			target = d.Hostname
			break
		}
	}
	if target == "" {
		res.claim(false, "no BGP-free compartment router found")
		return res
	}
	g, err := pathway.Compute(m, target)
	if err != nil {
		res.claim(false, "pathway failed: %v", err)
		return res
	}
	res.Body = g.String()
	res.claim(g.ReachesExternal, "external routes reach router %s", target)
	res.claim(g.MaxDepth() >= 3,
		"routes pass through at least 3 layers of protocols and redistribution (depth %d)", g.MaxDepth())
	protos := make(map[devmodel.Protocol]bool)
	for _, h := range g.Hops {
		if h.Instance != nil {
			protos[h.Instance.Protocol] = true
		}
	}
	res.claim(protos[devmodel.ProtoEIGRP] && protos[devmodel.ProtoBGP],
		"the pathway mixes EIGRP and BGP layers — it cannot be fit into the two-layer EGP/IGP model")
	return res
}

// Figure11 reproduces the CDF of the percentage of packet-filter rules
// applied to internal links.
func Figure11(ws *Workspace) Result {
	res := Result{ID: "F11", Title: "Packet filter rules on internal links (Figure 11)"}

	var fstats []*filters.NetworkStats
	noFilters := 0
	for _, na := range ws.Nets {
		fstats = append(fstats, na.Filters)
		if !na.Filters.HasFilters {
			noFilters++
		}
	}
	ps := filters.InternalPercentages(fstats)
	c := stats.NewCDF(ps)
	res.Body = report.CDFPlot(c, "percent of filter rules on internal links", 40)

	res.claim(noFilters == 3, "three networks define no packet filters (measured %d)", noFilters)
	res.claim(len(ps) == 28, "28 networks enter the CDF (measured %d)", len(ps))
	frac := c.FractionAtLeast(40)
	res.claim(frac > 0.30,
		"in more than 30%% of networks, at least 40%% of filter rules are internal (measured %.0f%%)", 100*frac)
	// Diversity of internal filtering goals (Section 5.3).
	protocols := make(map[string]bool)
	maxClauses := 0
	for _, fs := range fstats {
		for _, p := range fs.ProtocolsDenied {
			protocols[p] = true
		}
		if fs.MaxClausesPerFilter > maxClauses {
			maxClauses = fs.MaxClausesPerFilter
		}
	}
	res.claim(protocols["pim"], "filters disable specific protocols such as PIM")
	res.claim(maxClauses >= 47, "a single filter packs 47 clauses (measured max %d)", maxClauses)
	return res
}

// Figure12 reproduces the net15 reachability analysis: policies restrict
// external reachability so tightly that the two sites cannot communicate.
func Figure12(ws *Workspace) Result {
	res := Result{ID: "F12", Title: "Controlling external reachability in net15 (Figure 12)"}
	na := ws.ByName("net15")
	space := addrspace.Discover(addrspace.CollectSubnets(na.Net), addrspace.Options{})
	an := reach.Analyze(na.Model, space, net15.ExternalRoutes(), nil)

	admitted := an.AdmittedExternalRoutes()
	t := report.NewTable("fact", "value")
	t.Addf("instances\t%d", len(na.Model.Instances))
	t.Addf("external ASes\t%s", join(asStrings(na.Model.ExternalASNs())))
	t.Addf("default route admitted\t%v", an.HasDefaultRoute())
	t.Addf("admitted external routes\t%s", join(prefixStrings(admitted)))
	t.Addf("AB2 -> AB4 reachable\t%v", an.BlockReachesBlock(net15.AB2, net15.AB4))
	t.Addf("AB4 -> AB2 reachable\t%v", an.BlockReachesBlock(net15.AB4, net15.AB2))
	res.Body = t.String()

	res.claim(len(na.Model.Instances) == 6,
		"net15 has six routing instances, as in Figure 12 (measured %d)", len(na.Model.Instances))
	res.claim(!an.HasDefaultRoute(), "hosts have no reachability to the Internet at large (no default route)")
	allowed := map[string]bool{net15.AB0.String(): true, net15.AB1.String(): true, net15.AB3.String(): true}
	onlyAllowed := len(admitted) > 0
	for _, p := range admitted {
		if !allowed[p.String()] {
			onlyAllowed = false
		}
	}
	res.claim(onlyAllowed, "only the blocks named by policies A1/A3 are admitted (%s)", join(prefixStrings(admitted)))
	res.claim(an.Partitioned(net15.AB2, net15.AB4),
		"hosts in AB2 cannot reach AB4 at all, or vice versa (A2 and A5 intersect in the empty set)")
	// IGP load prediction: ingress filters bound the OSPF route count.
	maxLoad := 0
	for _, in := range na.Model.Instances {
		if in.Protocol.IsIGP() {
			if l := an.IGPLoad(in); l > maxLoad {
				maxLoad = l
			}
		}
	}
	res.claim(maxLoad > 0 && maxLoad < 200,
		"the maximum OSPF process load is bounded by the ingress filters (measured %d routes)", maxLoad)
	return res
}

func prefixStrings(ps []netaddr.Prefix) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

func asStrings(as []uint32) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = fmt.Sprintf("AS%d", a)
	}
	sort.Strings(out)
	return out
}
