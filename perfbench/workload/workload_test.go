package workload

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testNets writes a small two-network corpus and loads it.
func testNets(t *testing.T) []*Net {
	t.Helper()
	var nets []*Net
	for _, name := range []string{"alpha", "beta"} {
		dir := filepath.Join(t.TempDir(), name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= 5; r++ {
			cfg := fmt.Sprintf("hostname %s-r%d\ninterface e0\n ip address 10.%d.%d.1 255.255.255.0\n", name, r, len(name), r)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("r%d.cfg", r)), []byte(cfg), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		n, err := LoadNet(name, dir)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	return nets
}

// sequence renders the first n operations of every client of spec.
func sequence(t *testing.T, spec Spec, nets []*Net, seed int64, n int) string {
	t.Helper()
	var b strings.Builder
	for c := range spec.Clients {
		g, err := NewGenerator(spec, nets, c, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%d %s\n", c, g.Next())
		}
	}
	return b.String()
}

func TestGeneratorDeterministic(t *testing.T) {
	nets := testNets(t)
	spec := Spec{Name: "t", Nets: []string{"alpha", "beta"}, EditNet: "beta",
		Clients: []Role{{EditEvery: 7}, {}}}
	a := sequence(t, spec, nets, 42, 2000)
	if b := sequence(t, spec, nets, 42, 2000); a != b {
		t.Fatal("the same seed gave different operation sequences")
	}
	if c := sequence(t, spec, nets, 43, 2000); a == c {
		t.Fatal("different seeds gave the same operation sequence")
	}
	for _, want := range []string{"query /v1/nets/alpha/pathway?router=alpha-r", "query /v1/nets/beta/reach?src=", "edit beta beta-r"} {
		if !strings.Contains(a, want) {
			t.Errorf("sequence never issues %q", want)
		}
	}
}

func TestReadBackAsksEveryEndpoint(t *testing.T) {
	n := testNets(t)[0]
	e := Edit{Net: n.Name, Router: n.Routers[1], Route: "198.18.0.1"}
	var got []string
	for _, q := range e.Answers(n) {
		got = append(got, q.Endpoint)
	}
	if strings.Join(got, " ") != strings.Join(Endpoints, " ") {
		t.Errorf("read-back asks %v, want %v", got, Endpoints)
	}
}

func TestEditsNeverRepeat(t *testing.T) {
	nets := testNets(t)
	spec := Spec{Name: "t", Nets: []string{"alpha"}, EditNet: "alpha", Clients: []Role{{EditEvery: 1}}}
	g, err := NewGenerator(spec, nets, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		op := g.Next()
		if op.Kind != EditOp {
			t.Fatalf("op %d is not an edit", i)
		}
		if seen[op.Edit.Route] {
			t.Fatalf("route %s repeats at edit %d", op.Edit.Route, i)
		}
		seen[op.Edit.Route] = true
		if !strings.HasPrefix(op.Edit.Route, "198.18.") && !strings.HasPrefix(op.Edit.Route, "198.19.") {
			t.Fatalf("route %s outside the benchmarking range", op.Edit.Route)
		}
	}
}

func TestEditApplyReplacesEarlierEdit(t *testing.T) {
	nets := testNets(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "r1.cfg"), []byte("hostname x\nip route 10.0.0.0 255.0.0.0 Null0"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{
		"hostname x\nip route 10.0.0.0 255.0.0.0 Null0\nip route 198.18.0.9 255.255.255.255 Null0\n",
		"hostname x\nip route 10.0.0.0 255.0.0.0 Null0\nip route 198.19.0.1 255.255.255.255 Null0\n",
	} {
		e := Edit{Net: nets[0].Name, Router: "x", File: "r1.cfg", Route: []string{"198.18.0.9", "198.19.0.1"}[i]}
		if err := e.Apply(dir); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(filepath.Join(dir, "r1.cfg")); string(got) != want {
			t.Fatalf("edit %d: got %q, want %q", i, got, want)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: Percentile must sort
		}
		return xs
	}
	cases := []struct {
		n, p   int
		wantV  float64
		wantOK bool
	}{
		{n: 1000, p: 99, wantV: 990, wantOK: true}, // 10 samples above
		{n: 999, p: 99, wantV: 990, wantOK: false}, // 9 above
		{n: 100, p: 90, wantV: 90, wantOK: true},
		{n: 99, p: 90, wantV: 90, wantOK: false},
		{n: 20, p: 50, wantV: 10, wantOK: true},
		{n: 19, p: 50, wantV: 10, wantOK: false},
		{n: 1, p: 50, wantV: 1, wantOK: false},
	}
	for _, c := range cases {
		v, ok := Percentile(ramp(c.n), c.p)
		if v != c.wantV || ok != c.wantOK {
			t.Errorf("Percentile(n=%d, p%d) = %v %t, want %v %t", c.n, c.p, v, ok, c.wantV, c.wantOK)
		}
		above := 0
		for _, x := range ramp(c.n) {
			if x > v {
				above++
			}
		}
		if ok != (above >= MinBeyond) {
			t.Errorf("Percentile(n=%d, p%d) has %d samples above it, ok %t", c.n, c.p, above, ok)
		}
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Error("no samples passed the rule")
	}
}

// TestQueryMixCoversEveryPair checks that block reaches range over every
// ordered pair of distinct blocks and that every endpoint is asked.
func TestQueryMixCoversEveryPair(t *testing.T) {
	nets := testNets(t)
	spec := Spec{Name: "t", Nets: []string{"alpha"}, Clients: []Role{{}}}
	g, err := NewGenerator(spec, nets, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs, endpoints := map[string]bool{}, map[string]int{}
	for i := 0; i < 5000; i++ {
		q := g.Next().Query
		endpoints[q.Endpoint]++
		if q.Endpoint == "reach_block" {
			if q.Src == q.Dst {
				t.Fatalf("block reach from %s to itself", q.Src)
			}
			pairs[q.Src+" "+q.Dst] = true
		}
	}
	n := len(nets[0].Blocks)
	if len(pairs) != n*(n-1) {
		t.Errorf("block reaches cover %d pairs, want all %d", len(pairs), n*(n-1))
	}
	for _, ep := range Endpoints {
		if endpoints[ep] < 800 {
			t.Errorf("endpoint %s asked %d times in 5000 queries", ep, endpoints[ep])
		}
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestRowsAddUpToOperationTime(t *testing.T) {
	totals := map[string]float64{"parse.s": 0.3, "simroute.s": 9.0, "reach.views.s": 1.5}
	for _, opTime := range []float64{4.1, 2.0} { // the second is over-attributed
		rows, un := Rows(totals, 3, opTime)
		sum := un
		for _, v := range rows {
			sum += v
		}
		if math.Abs(sum-opTime) > 1e-12 {
			t.Errorf("rows + unattributed = %v, want %v", sum, opTime)
		}
		if got := rows["simroute.s"]; got != 3.0 {
			t.Errorf("simroute.s per op = %v, want 3", got)
		}
	}
}

func TestParseAnswerAndCheck(t *testing.T) {
	n := &Net{Name: "alpha", Routers: []string{"a", "b"}}
	q := Query{Net: "alpha", Endpoint: "summary"}
	ans, seq, err := ParseAnswer(q, []byte(`{"routers":2,"interfaces":4,"instances":1,"classification":"x","seq":3}`))
	if err != nil || seq != 3 {
		t.Fatalf("ParseAnswer = %q %d %v", ans, seq, err)
	}
	if msg := Check(q, n, ans, false); msg != "" {
		t.Error(msg)
	}
	bq := Query{Net: "alpha", Endpoint: "reach_block", Src: "10.0.0.0/24", Dst: "198.18.0.1/32"}
	ans, _, err = ParseAnswer(bq, []byte(`{"src":"10.0.0.0/24","dst":"198.18.0.1/32","reachable":false,"seq":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if Check(bq, n, ans, true) == "" {
		t.Error("an unreachable fresh /32 passed the check")
	}
	if _, _, err := ParseAnswer(q, []byte(`{"error":"x"}`)); err == nil {
		t.Error("an error body parsed as an answer")
	}
}
