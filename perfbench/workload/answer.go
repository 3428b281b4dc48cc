package workload

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Canonical answers: the facts of a response that the daemon and the
// traced replay must agree on, rendered as one string per query so the
// two sides compare with ==. The daemon's side is parsed from its JSON
// body (ParseAnswer); the replay's side is built from the layer calls
// with the *Answer helpers.

// SummaryAnswer renders a summary's counts and classification.
func SummaryAnswer(routers, interfaces, instances int, class string) string {
	return fmt.Sprintf("routers=%d interfaces=%d instances=%d class=%s", routers, interfaces, instances, class)
}

// PathwayAnswer renders a pathway's hops (instance label and depth, in
// order) and whether it reaches the outside world.
func PathwayAnswer(router string, external bool, hops []string) string {
	return fmt.Sprintf("router=%s external=%t hops=%s", router, external, strings.Join(hops, ","))
}

// Hop renders one pathway hop for PathwayAnswer.
func Hop(instance string, depth int) string { return fmt.Sprintf("%s@%d", instance, depth) }

// ReachAnswer renders the network-wide reach view.
func ReachAnswer(hasDefault bool, admitted []string) string {
	return fmt.Sprintf("default=%t admitted=%s", hasDefault, strings.Join(admitted, ","))
}

// BlockAnswer renders a block-to-block reach answer.
func BlockAnswer(src, dst string, reachable bool) string {
	return fmt.Sprintf("%s->%s reachable=%t", src, dst, reachable)
}

// WhatifAnswer renders the survivability counts.
func WhatifAnswer(routerFailures, linkFailures, bridges, staticRisks int) string {
	return fmt.Sprintf("routers=%d links=%d bridges=%d statics=%d", routerFailures, linkFailures, bridges, staticRisks)
}

// response is the union of the daemon's query response bodies.
type response struct {
	Seq int64 `json:"seq"`
	// summary
	Routers        int    `json:"routers"`
	Interfaces     int    `json:"interfaces"`
	Instances      int    `json:"instances"`
	Classification string `json:"classification"`
	// pathway
	Router          string `json:"router"`
	ReachesExternal bool   `json:"reaches_external"`
	Hops            []struct {
		Instance string `json:"instance"`
		Depth    int    `json:"depth"`
	} `json:"hops"`
	// reach
	HasDefaultRoute  *bool    `json:"has_default_route"`
	AdmittedExternal []string `json:"admitted_external"`
	Src              string   `json:"src"`
	Dst              string   `json:"dst"`
	Reachable        *bool    `json:"reachable"`
	// whatif
	RouterFailures *int `json:"router_failures"`
	LinkFailures   int  `json:"link_failures"`
	BridgeFailures int  `json:"bridge_failures"`
	StaticRisks    int  `json:"static_risks"`
}

// ParseAnswer extracts the canonical answer and the serving generation
// from a daemon response to q.
func ParseAnswer(q Query, body []byte) (string, int64, error) {
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		return "", 0, fmt.Errorf("%s: %w", q.Path(), err)
	}
	if r.Seq <= 0 {
		return "", 0, fmt.Errorf("%s: response carries no generation", q.Path())
	}
	switch q.Endpoint {
	case "summary":
		return SummaryAnswer(r.Routers, r.Interfaces, r.Instances, r.Classification), r.Seq, nil
	case "pathway":
		hops := make([]string, len(r.Hops))
		for i, h := range r.Hops {
			hops[i] = Hop(h.Instance, h.Depth)
		}
		return PathwayAnswer(r.Router, r.ReachesExternal, hops), r.Seq, nil
	case "reach":
		if r.HasDefaultRoute == nil {
			return "", 0, fmt.Errorf("%s: no has_default_route", q.Path())
		}
		return ReachAnswer(*r.HasDefaultRoute, r.AdmittedExternal), r.Seq, nil
	case "reach_block":
		if r.Reachable == nil {
			return "", 0, fmt.Errorf("%s: no reachable flag", q.Path())
		}
		return BlockAnswer(r.Src, r.Dst, *r.Reachable), r.Seq, nil
	case "whatif":
		if r.RouterFailures == nil {
			return "", 0, fmt.Errorf("%s: no router_failures", q.Path())
		}
		return WhatifAnswer(*r.RouterFailures, r.LinkFailures, r.BridgeFailures, r.StaticRisks), r.Seq, nil
	}
	return "", 0, fmt.Errorf("unknown endpoint %q", q.Endpoint)
}

// Check applies the answer facts that hold whatever the design: a
// summary counts every router of the network, a pathway is the
// requested router's, a block answer echoes its pair, and an edit
// cycle's reach of its fresh /32 is reachable (the edited router holds
// the static route). It returns "" when the answer passes.
func Check(q Query, n *Net, answer string, fresh bool) string {
	switch q.Endpoint {
	case "summary":
		if !strings.HasPrefix(answer, fmt.Sprintf("routers=%d ", len(n.Routers))) {
			return fmt.Sprintf("summary of %s counts other than %d routers: %s", n.Name, len(n.Routers), answer)
		}
	case "pathway":
		if !strings.HasPrefix(answer, "router="+q.Router+" ") {
			return fmt.Sprintf("pathway for %s answered %s", q.Router, answer)
		}
	case "reach_block":
		want := BlockAnswer(q.Src, q.Dst, true)
		if !strings.HasPrefix(answer, q.Src+"->"+q.Dst+" ") || (fresh && answer != want) {
			return fmt.Sprintf("reach %s->%s answered %s", q.Src, q.Dst, answer)
		}
	}
	return ""
}
