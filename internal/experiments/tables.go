package experiments

import (
	"routinglens/internal/addrspace"
	"routinglens/internal/classify"
	"routinglens/internal/devmodel"
	"routinglens/internal/net15"
	"routinglens/internal/reach"
	"routinglens/internal/report"
)

// Table1 reproduces "Number of protocol instances performing intra- or
// inter-domain routing": the conventional IGP/EGP split holds for ~90% of
// uses, with a significant unconventional minority in both directions.
func Table1(ws *Workspace) Result {
	res := Result{ID: "T1", Title: "Protocol instances by intra/inter-domain role (Table 1)"}

	var roles classify.Roles
	for _, na := range ws.Nets {
		roles.Add(classify.ProtocolRoles(na.Model))
	}

	type paperRow struct {
		name         string
		intra, inter int // the paper's values
		got          classify.RoleCounts
	}
	rows := []paperRow{
		{"OSPF", 9624, 1161, roles.OSPF},
		{"EIGRP", 12741, 156, roles.EIGRP},
		{"RIP", 1342, 161, roles.RIP},
		{"EBGP sessions", 1490, 13830, roles.EBGP},
	}
	t := report.NewTable("protocol", "paper intra", "paper inter", "measured intra", "measured inter", "paper %intra", "measured %intra")
	for _, r := range rows {
		paperShare := 100 * float64(r.intra) / float64(r.intra+r.inter)
		gotShare := 0.0
		if r.got.Total() > 0 {
			gotShare = 100 * float64(r.got.Intra) / float64(r.got.Total())
		}
		t.Addf("%s\t%d\t%d\t%d\t%d\t%.0f%%\t%.0f%%",
			r.name, r.intra, r.inter, r.got.Intra, r.got.Inter, paperShare, gotShare)
	}
	res.Body = t.String()

	share := func(rc classify.RoleCounts) float64 {
		if rc.Total() == 0 {
			return 0
		}
		return float64(rc.Intra) / float64(rc.Total())
	}
	res.claim(share(roles.OSPF) > 0.75, "~90%% of OSPF instances are intra-domain (measured %.0f%%)", 100*share(roles.OSPF))
	res.claim(share(roles.EIGRP) > 0.85, "~99%% of EIGRP instances are intra-domain (measured %.0f%%)", 100*share(roles.EIGRP))
	res.claim(share(roles.RIP) > 0.75, "~89%% of RIP instances are intra-domain (measured %.0f%%)", 100*share(roles.RIP))
	res.claim(share(roles.EBGP) < 0.2, "~90%% of EBGP sessions are inter-domain (measured %.0f%% intra)", 100*share(roles.EBGP))
	igpInter := roles.OSPF.Inter + roles.EIGRP.Inter + roles.RIP.Inter
	res.claim(igpInter > 50, "a significant number of IGP instances serve as EGPs (measured %d)", igpInter)
	res.claim(roles.EBGP.Intra > 20, "a significant number of EBGP sessions are used intra-network (measured %d)", roles.EBGP.Intra)
	return res
}

// Table2 reproduces the net15 policy table: which address blocks each
// redistribution policy mentions.
func Table2(ws *Workspace) Result {
	res := Result{ID: "T2", Title: "Address blocks mentioned by net15 redistribution policies (Table 2)"}
	na := ws.ByName("net15")
	space := addrspace.Discover(addrspace.CollectSubnets(na.Net), addrspace.Options{})
	analysis := reach.Analyze(na.Model, space, net15.ExternalRoutes(), nil)

	t := report.NewTable("policy", "device", "blocks mentioned")
	byKey := make(map[string][]string)
	for _, row := range analysis.PolicyTable() {
		var blocks []string
		for _, b := range row.Blocks {
			blocks = append(blocks, b.String())
		}
		key := row.Device.Hostname + "/" + row.Name
		byKey[key] = blocks
		t.Addf("%s\t%s\t%s", row.Name, row.Device.Hostname, join(blocks))
	}
	res.Body = t.String()

	// Paper Table 2: A1={AB0,AB1}, A2={AB2}, A3={AB0,AB3}, A4={AB4}.
	check := func(key string, want ...string) {
		got := byKey[key]
		ok := len(got) == len(want)
		if ok {
			for i := range want {
				if got[i] != want[i] {
					ok = false
				}
			}
		}
		res.claim(ok, "policy %s mentions exactly %s (got %s)", key, join(want), join(got))
	}
	check("l0/11", net15.AB0.String(), net15.AB1.String()) // A1
	check("l0/12", net15.AB2.String())                     // A2
	check("r0/13", net15.AB0.String(), net15.AB3.String()) // A3
	check("r0/14", net15.AB4.String())                     // A4
	return res
}

// Table3 reproduces the interface-type composition of the corpus.
func Table3(ws *Workspace) Result {
	res := Result{ID: "T3", Title: "Types of interfaces found in the corpus (Table 3)"}

	paper := []struct {
		typ   string
		count int
	}{
		{"Null", 2}, {"Multilink", 4}, {"Fddi", 6}, {"CBR", 14},
		{"Channel", 51}, {"Virtual", 83}, {"Async", 90}, {"Port", 151},
		{"Tunnel", 202}, {"BRI", 1077}, {"Dialer", 1296}, {"TokenRing", 1344},
		{"GigabitEthernet", 2171}, {"Hssi", 2375}, {"Ethernet", 3685},
		{"POS", 3937}, {"ATM", 6242}, {"FastEthernet", 20420}, {"Serial", 53337},
	}

	mix := make(map[string]int)
	total := 0
	for _, na := range ws.Nets {
		for _, d := range na.Net.Devices {
			for _, i := range d.Interfaces {
				mix[i.Type()]++
				total++
			}
		}
	}

	t := report.NewTable("type", "paper count", "measured count")
	for _, p := range paper {
		t.Addf("%s\t%d\t%d", p.typ, p.count, mix[p.typ])
	}
	t.Addf("Loopback\t-\t%d", mix["Loopback"])
	t.Addf("total\t96487\t%d", total)
	res.Body = t.String()

	res.claim(mix["Serial"] > mix["FastEthernet"] && mix["Serial"] > mix["ATM"],
		"Serial interfaces are by far the most common (measured %d)", mix["Serial"])
	res.claim(mix["FastEthernet"] > mix["ATM"],
		"FastEthernet outnumbers ATM (measured %d vs %d)", mix["FastEthernet"], mix["ATM"])
	present := 0
	for _, p := range paper {
		if mix[p.typ] > 0 {
			present++
		}
	}
	res.claim(present == len(paper), "all %d interface types of Table 3 appear in the corpus (%d present)", len(paper), present)
	// POS concentrated in backbones; the fourth backbone is HSSI/ATM.
	posNets := 0
	for _, na := range ws.Nets {
		m := classify.InterfaceMix([]*devmodel.Network{na.Net})
		if m["POS"] > 0 {
			posNets++
		}
	}
	res.claim(posNets >= 3 && posNets <= 6,
		"POS appears in a handful of networks, concentrated in backbones (measured %d)", posNets)
	return res
}

func join(ss []string) string {
	if len(ss) == 0 {
		return "(none)"
	}
	out := ss[0]
	for _, s := range ss[1:] {
		out += ", " + s
	}
	return out
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}
