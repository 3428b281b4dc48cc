package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"routinglens/internal/core"
	"routinglens/internal/faultinject"
	"routinglens/internal/telemetry"
)

// The inbound trace IDs the golden script sends, one as X-Trace-Id and
// one inside a traceparent; the recording leaves them unmasked, so the
// echo is pinned.
const (
	queryPathTraceID  = "4bf92f3577b34da6a3ce929d0e0e4736"
	queryPathParentID = "0af7651916cd43dd8448eb211c80319c"
)

var (
	traceIDRe  = regexp.MustCompile(`[0-9a-f]{32}`)
	loadedAtRe = regexp.MustCompile(`"loaded_at": "[^"]*"`)
)

// maskQueryPath hides what differs between runs: generated trace IDs
// and load timestamps.
func maskQueryPath(s string) string {
	s = traceIDRe.ReplaceAllStringFunc(s, func(id string) string {
		if id == queryPathTraceID || id == queryPathParentID {
			return id
		}
		return "<trace-id>"
	})
	return loadedAtRe.ReplaceAllString(s, `"loaded_at": "<time>"`)
}

// TestQueryPathGolden pins everything the data-plane request path shows
// a client or an operator against testdata/querypath.golden: each
// response's status, headers and masked body, every counter and
// histogram count it leaves in a fresh registry, the set of series, the
// trace store's rows and the published event types. The script covers
// every endpoint's miss and hit, the error paths, the removed pre-fleet
// alias paths (404s now), a query before the first load, a shed, a
// timeout and a panic. Each
// fault fires on its endpoint's first request, which is a cache miss.
// Regenerate deliberately with
//
//	UPDATE_GOLDEN=1 go test ./internal/serve -run TestQueryPathGolden
func TestQueryPathGolden(t *testing.T) {
	// The design is analyzed outside the server's registry, so the
	// golden counts only what serving does (analysis counts depend on
	// the host's core count).
	res, err := core.NewAnalyzer().AnalyzeDirResult(
		telemetry.WithRegistry(context.Background(), telemetry.NewRegistry()), "example", exampleDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	const holdFor = 500 * time.Millisecond
	reg := telemetry.NewRegistry()
	s, err := New(Config{
		Nets: []NetSource{{Name: "example", Load: func(context.Context) (*core.Result, error) {
			return res, nil
		}}},
		MaxInFlight:    1,
		RequestTimeout: 1500 * time.Millisecond,
		SlowQuery:      1200 * time.Millisecond,
		TraceStoreSize: 1000,
		Registry:       reg,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		Faults: faultinject.New(1,
			faultinject.Rule{Site: "handler.summary", Kind: faultinject.KindDelay, Delay: holdFor, Count: 1},
			faultinject.Rule{Site: "handler.whatif", Kind: faultinject.KindDelay, Delay: time.Minute, Count: 1},
			faultinject.Rule{Site: "handler.pathway", Kind: faultinject.KindPanic, Count: 1},
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var out strings.Builder
	type response struct {
		label string
		resp  *http.Response
		body  []byte
	}
	fetch := func(method, path string, hdr ...string) response {
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return response{method + " " + path, resp, body}
	}
	record := func(r response) {
		fmt.Fprintf(&out, "%s -> %d\n", r.label, r.resp.StatusCode)
		for _, h := range []string{"Content-Type", "X-Cache", "Retry-After", "Deprecation", "Link"} {
			if v := r.resp.Header.Get(h); v != "" {
				fmt.Fprintf(&out, "  %s: %s\n", h, v)
			}
		}
		id := r.resp.Header.Get(telemetry.TraceHeader)
		switch {
		case id == queryPathTraceID || id == queryPathParentID:
			fmt.Fprintf(&out, "  X-Trace-Id: inbound %s\n", id)
		case telemetry.ValidTraceID(id):
			out.WriteString("  X-Trace-Id: fresh\n")
		default:
			fmt.Fprintf(&out, "  X-Trace-Id: %q\n", id)
		}
		for _, line := range strings.Split(strings.TrimRight(maskQueryPath(string(r.body)), "\n"), "\n") {
			fmt.Fprintf(&out, "  | %s\n", line)
		}
	}
	step := func(method, path string, hdr ...string) { record(fetch(method, path, hdr...)) }
	const net = "/v1/nets/example/"

	out.WriteString("## before the first load\n")
	step("GET", net+"reach")
	step("GET", "/v1/reach")
	if err := s.ReloadAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	out.WriteString("## shed: a delayed summary miss holds the only slot\n")
	held := make(chan response, 1)
	go func() { held <- fetch("GET", net+"summary") }()
	inflight := reg.Gauge(MetricInFlight, lnet("example"))
	for deadline := time.Now().Add(holdFor / 2); inflight.Value() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the delayed summary never took the limiter slot")
		}
	}
	step("GET", net+"pathway?router=r1")
	record(<-held)

	out.WriteString("## timeout, then the same query computes and replays\n")
	for range 3 {
		step("GET", net+"whatif")
	}
	out.WriteString("## panic, then the same query computes and replays\n")
	for range 3 {
		step("GET", net+"pathway?router=r1")
	}

	out.WriteString("## every endpoint: miss, then hit\n")
	step("GET", net+"summary")
	for _, p := range []string{
		"summary?format=text",
		"pathway?router=r1&format=text",
		"reach",
		"reach?format=text",
		"reach?src=10.10.1.0/24&dst=10.10.2.0/24",
		"whatif?format=text",
	} {
		step("GET", net+p)
		step("GET", net+p)
	}
	step("GET", net+"reach?dst=10.10.2.0/24&src=10.10.1.0/24")

	out.WriteString("## errors\n")
	step("GET", net+"pathway?router=no-such-router")
	step("GET", net+"pathway?router=no-such-router")
	step("GET", net+"summary?bogus=1")
	step("GET", net+"pathway")
	step("GET", net+"reach?src=10.10.1.0/24")
	step("GET", "/v1/nets/nosuch/summary")
	step("POST", net+"summary")
	step("GET", net+"summary", telemetry.TraceHeader, queryPathTraceID)
	step("GET", net+"whatif", telemetry.TraceparentHeader, "00-"+queryPathParentID+"-00f067aa0ba902b7-01")

	out.WriteString("## alias routes\n")
	for _, p := range []string{"/v1/summary", "/v1/pathway?router=r1", "/v1/reach", "/v1/whatif",
		"/v1/pathway?router=r2", "/v1/pathway?router=r2", "/v1/summary?bogus=1"} {
		step("GET", p)
	}
	step("POST", "/v1/whatif")

	out.WriteString("## control plane\n")
	step("GET", "/healthz")
	step("POST", "/healthz")
	step("GET", net+"quarantine")
	step("GET", "/v1/nets/nosuch/quarantine")
	step("POST", net+"events")
	step("GET", "/no/such/endpoint")

	out.WriteString("## metrics\n")
	var metrics bytes.Buffer
	if err := reg.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	var fams []struct {
		Name   string
		Type   string
		Series []struct {
			Labels map[string]string
			Value  *float64
			Count  *uint64
		}
	}
	if err := json.Unmarshal(metrics.Bytes(), &fams); err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		for _, se := range f.Series {
			keys := make([]string, 0, len(se.Labels))
			for k := range se.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			labels := make([]string, len(keys))
			for i, k := range keys {
				labels[i] = k + "=" + se.Labels[k]
			}
			series := f.Name + "{" + strings.Join(labels, ",") + "}"
			if f.Name == telemetry.MetricBuildInfo {
				series = f.Name + "{<build>}"
			}
			switch {
			case f.Type == "counter" && se.Value != nil:
				fmt.Fprintf(&out, "%s %s = %v\n", f.Type, series, *se.Value)
			case f.Type == "histogram" && se.Count != nil:
				fmt.Fprintf(&out, "%s %s count = %d\n", f.Type, series, *se.Count)
			default:
				fmt.Fprintf(&out, "%s %s\n", f.Type, series)
			}
		}
	}

	out.WriteString("## events\n")
	evs, _, _ := s.Net("example").Events().Since(0, 0)
	for _, ev := range evs {
		fmt.Fprintf(&out, "%s\n", ev.Type)
	}

	out.WriteString("## traces, oldest first\n")
	var listing struct {
		Traces []struct {
			ID       string `json:"id"`
			Endpoint string `json:"endpoint"`
			Status   int    `json:"status"`
			CacheHit bool   `json:"cache_hit"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(fetch("GET", "/debug/traces?limit=1000").body, &listing); err != nil {
		t.Fatal(err)
	}
	for i := len(listing.Traces) - 1; i >= 0; i-- {
		tr := listing.Traces[i]
		var detail struct {
			Spans []struct {
				Name string `json:"name"`
			} `json:"span_list"`
		}
		if err := json.Unmarshal(fetch("GET", "/debug/traces/"+tr.ID).body, &detail); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, sp := range detail.Spans {
			names = append(names, sp.Name)
		}
		fmt.Fprintf(&out, "%s %d cache_hit=%v spans=%v\n", tr.Endpoint, tr.Status, tr.CacheHit, names)
	}

	goldenPath := filepath.Join("testdata", "querypath.golden")
	got := out.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with UPDATE_GOLDEN=1): %v", goldenPath, err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("query path output drifted from %s at line %d:\ngot:  %s\nwant: %s", goldenPath, i+1, g, w)
			}
		}
	}
}

// TestFaultHookFiresOnMissesOnly pins the handler fault sites' contract:
// "handler.<endpoint>" fires before the handler runs, and a cache hit
// runs no handler. A delay armed on every visit slows the computing
// request but not the replay after it.
func TestFaultHookFiresOnMissesOnly(t *testing.T) {
	const delay = 400 * time.Millisecond
	s := newTestServer(t, func(c *Config) {
		c.Faults = faultinject.New(1, faultinject.Rule{
			Site: "handler.summary", Kind: faultinject.KindDelay, Delay: delay,
		})
	})
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	timed := func() (time.Duration, http.Header) {
		start := time.Now()
		code, _, hdr := rawGet(t, ts.URL+"/v1/nets/example/summary")
		if code != http.StatusOK {
			t.Fatalf("summary: status %d, want 200", code)
		}
		return time.Since(start), hdr
	}
	if d, hdr := timed(); d < delay || hdr.Get("X-Cache") != "" {
		t.Errorf("computing request took %v with X-Cache %q, want >= %v and a miss", d, hdr.Get("X-Cache"), delay)
	}
	if d, hdr := timed(); d >= delay || hdr.Get("X-Cache") != "hit" {
		t.Errorf("replay took %v with X-Cache %q, want < %v and a hit", d, hdr.Get("X-Cache"), delay)
	}
	fired := s.reg.Counter(faultinject.MetricFaultsInjected,
		telemetry.L("site", "handler.summary"), telemetry.L("kind", "delay")).Value()
	if fired != 1 {
		t.Errorf("handler.summary fired %d times, want 1 (the miss only)", fired)
	}
}

// benchWriter is the cheapest ResponseWriter that still keeps headers
// and the status, so the benchmark measures the stack, not the writer.
type benchWriter struct {
	h    http.Header
	code int
}

func (w *benchWriter) Header() http.Header { return w.h }

func (w *benchWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *benchWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}

// BenchmarkQueryStack drives the data-plane request path in process —
// Server.Handler() over the example network, no sockets — with one
// cached-hit and one miss row per fleet endpoint. The miss rows purge
// the network's query cache before each request, so they include one
// purge (an empty map). The hit rows are what most fleet queries pay:
//
//	go test -run '^$' -bench QueryStack ./internal/serve
func BenchmarkQueryStack(b *testing.B) {
	s, err := New(Config{
		Nets:     []NetSource{{Name: "example", Dir: exampleDir}},
		Registry: telemetry.NewRegistry(),
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.ReloadAll(context.Background()); err != nil {
		b.Fatal(err)
	}
	h, nw := s.Handler(), s.Net("example")
	for _, q := range []struct{ name, path string }{
		{"summary", "summary"},
		{"pathway", "pathway?router=r1"},
		{"reach", "reach"},
		{"reach_block", "reach?src=10.10.1.0/24&dst=10.10.2.0/24"},
		{"whatif", "whatif"},
	} {
		req := httptest.NewRequest(http.MethodGet, "/v1/nets/example/"+q.path, nil)
		w := &benchWriter{h: make(http.Header)}
		serve := func(b *testing.B) {
			clear(w.h)
			w.code = 0
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("%s: status %d", q.path, w.code)
			}
		}
		b.Run(q.name+"/hit", func(b *testing.B) {
			serve(b)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				serve(b)
			}
			if w.h.Get("X-Cache") != "hit" {
				b.Fatalf("%s: not served from the cache", q.path)
			}
		})
		b.Run(q.name+"/miss", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				nw.qc.purge()
				serve(b)
			}
			if w.h.Get("X-Cache") != "" {
				b.Fatalf("%s: served from the cache", q.path)
			}
		})
	}
}
