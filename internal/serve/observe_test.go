package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"routinglens/internal/telemetry"
)

// TestTraceIDOnEveryDataPlaneResponse is the tracing acceptance
// criterion: every 200 data-plane response carries a trace ID that
// resolves at /debug/traces/<id>, with the request's spans attached.
func TestTraceIDOnEveryDataPlaneResponse(t *testing.T) {
	s := newTestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	paths := []string{"/v1/nets/example/summary", "/v1/nets/example/pathway?router=r1", "/v1/nets/example/reach", "/v1/nets/example/whatif"}
	for _, p := range paths {
		code, _, hdr := get(t, ts.URL+p)
		if code != http.StatusOK {
			t.Fatalf("%s: got %d, want 200", p, code)
		}
		id := hdr.Get(telemetry.TraceHeader)
		if !telemetry.ValidTraceID(id) {
			t.Fatalf("%s: %s = %q, not a valid trace ID", p, telemetry.TraceHeader, id)
		}
		code, m, _ := get(t, ts.URL+"/debug/traces/"+id)
		if code != http.StatusOK {
			t.Fatalf("%s: trace %s not resolvable: %d (%v)", p, id, code, m)
		}
		if m["id"] != id {
			t.Errorf("%s: trace body id = %v, want %s", p, m["id"], id)
		}
		if m["status"].(float64) != http.StatusOK {
			t.Errorf("%s: trace status = %v, want 200", p, m["status"])
		}
		spans, _ := m["span_list"].([]any)
		if len(spans) == 0 {
			t.Errorf("%s: trace %s has no spans", p, id)
		}
	}

	// Errored responses are traced too.
	_, _, hdr := get(t, ts.URL+"/v1/nets/example/pathway?router=no-such-router")
	id := hdr.Get(telemetry.TraceHeader)
	if !telemetry.ValidTraceID(id) {
		t.Fatalf("404 response has no trace ID")
	}
	code, m, _ := get(t, ts.URL+"/debug/traces/"+id)
	if code != http.StatusOK || m["status"].(float64) != http.StatusNotFound {
		t.Errorf("404's trace: code %d status %v, want 200 / 404", code, m["status"])
	}

	// The listing exposes the traces and per-endpoint exemplars.
	code, m, _ = get(t, ts.URL+"/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces: %d", code)
	}
	if m["total_traced"].(float64) < float64(len(paths)+1) {
		t.Errorf("total_traced = %v, want >= %d", m["total_traced"], len(paths)+1)
	}
	ex, _ := m["exemplars"].(map[string]any)
	se, ok := ex["summary"].(map[string]any)
	if !ok {
		t.Fatalf("no summary exemplar in %v", ex)
	}
	if !telemetry.ValidTraceID(se["trace_id"].(string)) {
		t.Errorf("summary exemplar trace_id = %v", se["trace_id"])
	}
}

func TestTraceparentHonored(t *testing.T) {
	s := newTestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const want = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/nets/example/summary", nil)
	req.Header.Set(telemetry.TraceparentHeader, "00-"+want+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.TraceHeader); got != want {
		t.Fatalf("%s = %q, want the inbound traceparent's %q", telemetry.TraceHeader, got, want)
	}
	code, m, _ := get(t, ts.URL+"/debug/traces/"+want)
	if code != http.StatusOK || m["id"] != want {
		t.Errorf("inbound trace not resolvable: %d %v", code, m)
	}

	// A malformed traceparent falls back to a fresh ID, not a 4xx.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/nets/example/summary", nil)
	req.Header.Set(telemetry.TraceparentHeader, "garbage")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.TraceHeader); !telemetry.ValidTraceID(got) || got == want {
		t.Errorf("malformed traceparent: trace ID %q", got)
	}
}

// TestCacheReplayInstrumentedAndTraced: an X-Cache: hit replay is
// still counted in the request metrics and gets its own trace ID,
// marked as a cache hit in the trace store.
func TestCacheReplayInstrumentedAndTraced(t *testing.T) {
	s := newTestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _, hdr1 := get(t, ts.URL+"/v1/nets/example/summary")
	code, _, hdr2 := get(t, ts.URL+"/v1/nets/example/summary")
	if code != http.StatusOK || hdr2.Get("X-Cache") != "hit" {
		t.Fatalf("second request: code %d, X-Cache %q, want 200 hit", code, hdr2.Get("X-Cache"))
	}
	id1, id2 := hdr1.Get(telemetry.TraceHeader), hdr2.Get(telemetry.TraceHeader)
	if !telemetry.ValidTraceID(id2) {
		t.Fatalf("replay has no trace ID")
	}
	if id1 == id2 {
		t.Fatalf("replay reused the computing request's trace ID %s", id1)
	}
	reqs := s.reg.Counter(telemetry.MetricHTTPRequests,
		telemetry.L("endpoint", "summary"), telemetry.L("code", "200")).Value()
	if reqs != 2 {
		t.Errorf("%s{summary,200} = %d, want 2 (replay must be counted)", telemetry.MetricHTTPRequests, reqs)
	}
	code, m, _ := get(t, ts.URL+"/debug/traces/"+id2)
	if code != http.StatusOK {
		t.Fatalf("replay trace not resolvable: %d", code)
	}
	if m["cache_hit"] != true {
		t.Errorf("replay trace cache_hit = %v, want true", m["cache_hit"])
	}
	if code, m, _ = get(t, ts.URL+"/debug/traces/"+id1); code != http.StatusOK || m["cache_hit"] == true {
		t.Errorf("computing trace: code %d cache_hit %v, want 200 / absent", code, m["cache_hit"])
	}
}

// TestSlowQueryReported: a request over the -slow-query threshold is
// counted, its trace marked slow, and a query.slow event published
// carrying the trace ID.
func TestSlowQueryReported(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.SlowQuery = time.Nanosecond })
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _, hdr := get(t, ts.URL+"/v1/nets/example/summary")
	id := hdr.Get(telemetry.TraceHeader)
	if got := s.reg.Counter(MetricSlowQueries, telemetry.L("endpoint", "summary")).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricSlowQueries, got)
	}
	_, m, _ := get(t, ts.URL+"/debug/traces/"+id)
	if m["slow"] != true {
		t.Errorf("trace slow = %v, want true", m["slow"])
	}
	evs, _, _ := soleNet(t, s).Events().Since(0, 0)
	var found bool
	for _, ev := range evs {
		if ev.Type == EvtSlowQuery && ev.Payload.(slowQueryPayload).TraceID == id {
			found = true
		}
	}
	if !found {
		t.Errorf("no %s event carrying trace %s in %d events", EvtSlowQuery, id, len(evs))
	}

	// Negative threshold disables reporting entirely.
	s2 := newTestServer(t, func(c *Config) { c.SlowQuery = -1 })
	mustReload(t, s2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	get(t, ts2.URL+"/v1/nets/example/summary")
	if got := s2.reg.Counter(MetricSlowQueries, telemetry.L("endpoint", "summary")).Value(); got != 0 {
		t.Errorf("disabled slow-query still counted %d", got)
	}
}

// TestVersionAndBuildInfo: /v1/version reports the build identity and
// the served network count, and the registry exports
// routinglens_build_info.
func TestVersionAndBuildInfo(t *testing.T) {
	s := newTestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, m, _ := get(t, ts.URL+"/v1/version")
	if code != http.StatusOK {
		t.Fatalf("/v1/version: %d", code)
	}
	if m["go_version"] != runtime.Version() {
		t.Errorf("go_version = %v, want %s", m["go_version"], runtime.Version())
	}
	if m["version"] == "" {
		t.Error("version is empty")
	}
	if m["nets"] != float64(1) {
		t.Errorf("nets = %v, want 1", m["nets"])
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), telemetry.MetricBuildInfo+"{") {
		t.Errorf("/metrics does not export %s", telemetry.MetricBuildInfo)
	}
}

func TestDebugTraceValidation(t *testing.T) {
	s := newTestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, _ := get(t, ts.URL+"/debug/traces/not-a-trace-id")
	if code != http.StatusBadRequest {
		t.Errorf("malformed trace id: got %d, want 400", code)
	}
	code, _, _ = get(t, ts.URL+"/debug/traces/"+strings.Repeat("a", 32))
	if code != http.StatusNotFound {
		t.Errorf("unknown trace id: got %d, want 404", code)
	}
	code, _, _ = get(t, ts.URL+"/debug/traces?limit=0")
	if code != http.StatusBadRequest {
		t.Errorf("limit=0: got %d, want 400", code)
	}
}
