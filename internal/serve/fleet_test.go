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
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routinglens/internal/core"
	"routinglens/internal/faultinject"
	"routinglens/internal/netgen"
	"routinglens/internal/telemetry"
)

// newFleetServer builds a Server hosting three networks over the example
// corpus (same configs, three independent generation chains); mutate
// tweaks the Config before New.
func newFleetServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	s := newTestServer(t, func(c *Config) {
		c.Nets = []NetSource{
			{Name: "alpha", Dir: exampleDir},
			{Name: "beta", Dir: exampleDir},
			{Name: "gamma", Dir: exampleDir},
		}
		if mutate != nil {
			mutate(c)
		}
	})
	return s
}

func mustReloadAll(t *testing.T, s *Server) {
	t.Helper()
	if err := s.ReloadAll(context.Background()); err != nil {
		t.Fatalf("ReloadAll: %v", err)
	}
}

// TestFleetReloadFailureIsolated is the fleet acceptance criterion: a
// reload failure on one network degrades only that network — the others
// keep answering 200 from their own designs, the global readiness stays
// 200, and per-network probes disagree exactly where they should.
func TestFleetReloadFailureIsolated(t *testing.T) {
	s := newFleetServer(t, func(c *Config) {
		// alpha's first load succeeds; its next two analyzer visits
		// (reload + one retry) fail; beta and gamma never fail.
		c.Faults = faultinject.New(1, faultinject.Rule{
			Site: SiteAnalyze + ".alpha", Kind: faultinject.KindError, After: 1, Count: 2,
		})
		c.ReloadRetries = 1
	})
	mustReloadAll(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/nets/alpha/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing alpha reload: got %d, want 500 (%v)", resp.StatusCode, m)
	}
	if m["code"] != codeReloadFailed || m["net"] != "alpha" {
		t.Errorf("failing alpha reload: got code=%v net=%v, want reload_failed/alpha", m["code"], m["net"])
	}
	if m["note"] != "still serving the last-good design" {
		t.Errorf("failing alpha reload: missing last-good note in %v", m)
	}

	// alpha still serves its last-good generation; beta is untouched.
	code, m, _ := get(t, ts.URL+"/v1/nets/alpha/summary")
	if code != http.StatusOK || m["seq"].(float64) != 1 {
		t.Errorf("alpha summary while degraded: got %d seq=%v, want 200 seq=1", code, m["seq"])
	}
	code, m, _ = get(t, ts.URL+"/v1/nets/beta/summary")
	if code != http.StatusOK || m["net"] != "beta" {
		t.Errorf("beta summary during alpha degradation: got %d %v, want 200 net=beta", code, m)
	}

	// Per-network probes disagree; the fleet probe stays 200 because two
	// of three networks are healthy.
	code, m, _ = get(t, ts.URL+"/readyz?net=alpha")
	if code != http.StatusServiceUnavailable || m["degraded"] != true {
		t.Errorf("readyz?net=alpha: got %d %v, want 503 degraded", code, m)
	}
	code, _, _ = get(t, ts.URL+"/readyz?net=beta")
	if code != http.StatusOK {
		t.Errorf("readyz?net=beta: got %d, want 200", code)
	}
	code, m, _ = get(t, ts.URL+"/readyz")
	if code != http.StatusOK || m["ready"] != true || m["degraded"] != false {
		t.Errorf("fleet readyz with one degraded net: got %d %v, want 200 ready not-degraded", code, m)
	}

	// The discovery listing tells the same story.
	code, m, _ = get(t, ts.URL+"/v1/nets")
	if code != http.StatusOK || m["count"].(float64) != 3 {
		t.Fatalf("/v1/nets: got %d %v, want 200 with 3 nets", code, m)
	}
	for _, raw := range m["nets"].([]any) {
		info := raw.(map[string]any)
		wantReady := info["name"] != "alpha"
		if info["ready"] != wantReady {
			t.Errorf("/v1/nets %s: ready=%v, want %v", info["name"], info["ready"], wantReady)
		}
	}

	// The fault window is exhausted: alpha's next reload recovers it.
	resp, err = http.Post(ts.URL+"/v1/nets/alpha/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovering alpha reload: got %d, want 200", resp.StatusCode)
	}
	code, _, _ = get(t, ts.URL+"/readyz?net=alpha")
	if code != http.StatusOK {
		t.Errorf("readyz?net=alpha after recovery: got %d, want 200", code)
	}
}

// TestFleetAllDegradedReadyz: only when EVERY network is degraded does
// the fleet probe go 503 degraded — the signal a load balancer acts on.
func TestFleetAllDegradedReadyz(t *testing.T) {
	s := newFleetServer(t, func(c *Config) {
		// Three initial loads succeed; the next three (one forced reload
		// per network, no retries) all fail.
		c.Faults = faultinject.New(1, faultinject.Rule{
			Site: SiteAnalyze, Kind: faultinject.KindError, After: 3, Count: 3,
		})
		c.ReloadRetries = 0
	})
	mustReloadAll(t, s)
	for _, name := range s.Nets() {
		if err := s.Net(name).Reload(context.Background()); err == nil {
			t.Fatalf("reload of %s unexpectedly succeeded", name)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, m, _ := get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || m["degraded"] != true {
		t.Errorf("fleet readyz with every net degraded: got %d %v, want 503 degraded", code, m)
	}
}

// TestFleetReloadIsolationStress is the fleet tier-2 race stress: net
// alpha's reloads are made slow and then made to fail while clients
// hammer net beta the whole time. Every beta response must be a 200
// from beta's own consistent generation — a slow or failing neighbor
// never blocks, 5xxes, or corrupts another network.
func TestFleetReloadIsolationStress(t *testing.T) {
	s := newFleetServer(t, func(c *Config) {
		// After the initial load, alpha's reloads first crawl, then fail.
		// Rule visit counters only advance when a rule is consulted, and a
		// firing rule short-circuits the ones after it — so the error
		// rule's own counter sees the initial load (skipped by After) and
		// then exactly the visits the exhausted delay rule passes through.
		c.Faults = faultinject.New(1,
			faultinject.Rule{Site: SiteAnalyze + ".alpha", Kind: faultinject.KindDelay,
				Delay: 150 * time.Millisecond, After: 1, Count: 3},
			faultinject.Rule{Site: SiteAnalyze + ".alpha", Kind: faultinject.KindError,
				After: 1, Count: 2},
		)
		c.ReloadRetries = 0
	})
	mustReloadAll(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	errs := make(chan string, 64)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			urls := []string{"/v1/nets/beta/summary", "/v1/nets/beta/pathway?router=r1",
				"/v1/nets/beta/reach", "/v1/nets/beta/whatif"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := urls[(g+i)%len(urls)]
				resp, err := http.Get(ts.URL + u)
				if err != nil {
					select {
					case errs <- fmt.Sprintf("%s: %v", u, err):
					default:
					}
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("%s: status %d (%s)", u, resp.StatusCode, body):
					default:
					}
					return
				}
			}
		}(g)
	}
	// Five alpha reloads in sequence: three slow ones, two failing ones.
	for i := 0; i < 5; i++ {
		_ = s.Net("alpha").Reload(context.Background())
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("beta query during alpha reloads: %s", e)
	}
	if st := s.Net("beta").State(); st == nil || st.Seq != 1 {
		t.Errorf("beta generation churned to %v, want untouched seq 1", st)
	}
	if !s.Net("alpha").Degraded() {
		t.Error("alpha should have ended degraded after its failing reloads")
	}
}

// TestEventsCursorsScopedPerNet: each network's event ring counts its
// own history — reloading alpha advances alpha's cursors only, and each
// events page names the network it belongs to.
func TestEventsCursorsScopedPerNet(t *testing.T) {
	alphaDir := copyExample(t)
	s := newFleetServer(t, func(c *Config) { c.Nets[0].Dir = alphaDir })
	mustReloadAll(t, s)
	for i := 0; i < 2; i++ {
		appendComment(t, alphaDir)
		if err := s.Net("alpha").Reload(context.Background()); err != nil {
			t.Fatalf("alpha reload %d: %v", i, err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, alpha, _ := get(t, ts.URL+"/v1/nets/alpha/events")
	if code != http.StatusOK || alpha["net"] != "alpha" {
		t.Fatalf("alpha events: got %d net=%v, want 200 net=alpha", code, alpha["net"])
	}
	code, beta, _ := get(t, ts.URL+"/v1/nets/beta/events")
	if code != http.StatusOK || beta["net"] != "beta" {
		t.Fatalf("beta events: got %d net=%v, want 200 net=beta", code, beta["net"])
	}
	if a, b := alpha["latest"].(float64), beta["latest"].(float64); a <= b {
		t.Errorf("alpha latest cursor %v should exceed beta's %v after alpha-only reloads", a, b)
	}
}

// TestUnknownNetEnvelope: a bogus {net} segment and a bogus path both
// answer with the unified JSON error envelope, complete with a
// machine-readable code and the request's trace ID. The pre-fleet
// single-network paths are bogus paths now: a 404 not_found with no
// Deprecation or Link header.
func TestUnknownNetEnvelope(t *testing.T) {
	s := newTestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, m, hdr := get(t, ts.URL+"/v1/nets/nope/summary")
	if code != http.StatusNotFound || m["code"] != codeUnknownNet {
		t.Errorf("unknown net: got %d code=%v, want 404 unknown_net (%v)", code, m["code"], m)
	}
	if m["trace_id"] == nil || m["trace_id"] != hdr.Get(telemetry.TraceHeader) {
		t.Errorf("unknown net: trace_id %v should match the X-Trace-Id header %q",
			m["trace_id"], hdr.Get(telemetry.TraceHeader))
	}
	if !strings.Contains(m["error"].(string), "GET /v1/nets") {
		t.Errorf("unknown net: error %q should point at the discovery endpoint", m["error"])
	}

	code, m, _ = get(t, ts.URL+"/v1/bogus")
	if code != http.StatusNotFound || m["code"] != codeNotFound {
		t.Errorf("bogus path: got %d code=%v, want 404 not_found (%v)", code, m["code"], m)
	}

	for _, tc := range []struct{ method, path string }{
		{"GET", "/v1/summary"},
		{"GET", "/v1/pathway?router=r1"},
		{"GET", "/v1/reach"},
		{"GET", "/v1/whatif"},
		{"POST", "/v1/reload"},
		{"GET", "/v1/events"},
		{"GET", "/v1/watch"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		var body map[string]any
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || body["code"] != codeNotFound {
			t.Errorf("%s %s: got %d code=%v, want 404 not_found", tc.method, tc.path, resp.StatusCode, body["code"])
		}
		if id := resp.Header.Get(telemetry.TraceHeader); body["trace_id"] == nil || body["trace_id"] != id {
			t.Errorf("%s %s: trace_id %v should match the X-Trace-Id header %q", tc.method, tc.path, body["trace_id"], id)
		}
		for _, h := range []string{"Deprecation", "Link"} {
			if v := resp.Header.Get(h); v != "" {
				t.Errorf("%s %s: %s header %q, want none", tc.method, tc.path, h, v)
			}
		}
	}

	// The 405 and 503 planes speak the same envelope.
	code, m, _ = get(t, ts.URL+"/v1/nets/example/reload")
	if code != http.StatusMethodNotAllowed || m["code"] != codeMethodNotAllowed {
		t.Errorf("GET reload: got %d code=%v, want 405 method_not_allowed", code, m["code"])
	}
}

// TestReloadWorkerPoolBounds: fleet-wide (re)analysis runs at most
// ReloadWorkers attempts at a time, however many networks there are.
func TestReloadWorkerPoolBounds(t *testing.T) {
	var inFlight, peak atomic.Int64
	slowLoad := func(name string) func(ctx context.Context) (*core.Result, error) {
		an := core.NewAnalyzer()
		return func(ctx context.Context) (*core.Result, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(30 * time.Millisecond)
			inFlight.Add(-1)
			return an.AnalyzeDirResult(ctx, name, exampleDir, nil)
		}
	}
	s := newTestServer(t, func(c *Config) {
		c.Nets = []NetSource{
			{Name: "n1", Load: slowLoad("n1")},
			{Name: "n2", Load: slowLoad("n2")},
			{Name: "n3", Load: slowLoad("n3")},
			{Name: "n4", Load: slowLoad("n4")},
		}
		c.ReloadWorkers = 2
	})
	mustReloadAll(t, s)
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrent loads = %d, want <= ReloadWorkers (2)", p)
	}
	for _, name := range s.Nets() {
		if s.Net(name).State() == nil {
			t.Errorf("net %s never loaded", name)
		}
	}
}

// TestFleetConfigValidation: New rejects unusable network sets instead
// of serving surprises.
func TestFleetConfigValidation(t *testing.T) {
	base := Config{RequestTimeout: time.Second}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"duplicate names", func(c *Config) {
			c.Nets = []NetSource{{Name: "a", Dir: exampleDir}, {Name: "a", Dir: exampleDir}}
		}},
		{"name with slash", func(c *Config) {
			c.Nets = []NetSource{{Name: "a/b", Dir: exampleDir}}
		}},
		{"empty name", func(c *Config) {
			c.Nets = []NetSource{{Name: "", Dir: exampleDir}}
		}},
		{"no networks", func(c *Config) {}},
		{"missing corpus root", func(c *Config) {
			c.CorpusDir = "no-such-corpus-root"
		}},
	} {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted an unusable config", tc.name)
		}
	}
}

// TestDesignLoadedLogsOwnCounts: networks of different sizes that load
// together under ReloadAll each log their own analysis on "design
// loaded". files_reparsed is the files that network parsed, not the
// process-wide gauge the other network's analysis may have set last,
// and sim_rounds is its own simulation's round count, as its
// routinglens_reload_sim_rounds series reads.
func TestDesignLoadedLogsOwnCounts(t *testing.T) {
	g := netgen.GenerateCorpus(2004).ByName("net26")
	dir := filepath.Join(t.TempDir(), "net26")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for h, text := range g.Configs {
		writeConfig(t, dir, h, text)
	}
	var logs bytes.Buffer // the handler serializes its writes
	s := newTestServer(t, func(c *Config) {
		c.Nets = []NetSource{{Name: "example", Dir: exampleDir}, {Name: "net26", Dir: dir}}
		c.Logger = slog.New(slog.NewJSONHandler(&logs, nil))
	})
	mustReloadAll(t, s)

	want := map[string]int{"example": 6, "net26": len(g.Configs)}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct {
			Msg       string  `json:"msg"`
			Net       string  `json:"net"`
			Reparsed  int     `json:"files_reparsed"`
			Simulated int     `json:"prefixes_simulated"`
			Prefixes  int     `json:"prefixes"`
			Rounds    float64 `json:"sim_rounds"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec.Msg != "design loaded" {
			continue
		}
		seen[rec.Net] = true
		if rec.Reparsed != want[rec.Net] {
			t.Errorf("%s: design loaded with files_reparsed=%d, want its own %d files", rec.Net, rec.Reparsed, want[rec.Net])
		}
		if rec.Simulated != rec.Prefixes {
			t.Errorf("%s: a first load simulated %d of %d prefixes", rec.Net, rec.Simulated, rec.Prefixes)
		}
		gauge := s.reg.Gauge(MetricSimRounds, lnet(rec.Net)).Value()
		if rec.Rounds < 2 || rec.Rounds != gauge {
			t.Errorf("%s: design loaded with sim_rounds=%v, gauge %v; want the run's own count, at least 2", rec.Net, rec.Rounds, gauge)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("design loaded logged for %v, want both networks", seen)
	}
}
