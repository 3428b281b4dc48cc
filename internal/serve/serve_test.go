package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"routinglens/internal/core"
	"routinglens/internal/faultinject"
	"routinglens/internal/telemetry"
)

// exampleDir is the six-router corpus every serve test analyzes; it is
// small enough that a full reload is milliseconds.
var exampleDir = filepath.Join("..", "..", "testdata", "example")

// newTestServer builds a Server over the example corpus, served as the
// one network "example", with a private registry and silent logs;
// mutate tweaks the Config before New.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Nets:           []NetSource{{Name: "example", Dir: exampleDir}},
		RequestTimeout: 5 * time.Second,
		ReloadBackoff:  5 * time.Millisecond,
		Registry:       telemetry.NewRegistry(),
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// lnet labels a metric lookup with one network's name.
func lnet(name string) telemetry.Label { return telemetry.L("net", name) }

// soleNet returns the network of a server that serves exactly one.
func soleNet(t *testing.T, s *Server) *Network {
	t.Helper()
	if len(s.netNames) != 1 {
		t.Fatalf("server has %d networks, want 1", len(s.netNames))
	}
	return s.nets[s.netNames[0]]
}

// get issues one GET and returns status, parsed-if-JSON body, and headers.
func get(t *testing.T, url string) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	var m map[string]any
	json.Unmarshal(body, &m) // nil map for text responses is fine
	return resp.StatusCode, m, resp.Header
}

// newEditableServer is newTestServer over a private copy of the example
// corpus, still served as "example". edit appends a comment line to one
// of its files, so the next reload analyzes changed input and publishes a
// new generation: a reload of unchanged input keeps the serving one.
func newEditableServer(t *testing.T, mutate func(*Config)) (s *Server, edit func()) {
	t.Helper()
	dir := copyExample(t)
	s = newTestServer(t, func(c *Config) {
		c.Nets = []NetSource{{Name: "example", Dir: dir}}
		if mutate != nil {
			mutate(c)
		}
	})
	return s, func() { appendComment(t, dir) }
}

// appendComment appends a comment line to r1's configuration in dir.
func appendComment(t *testing.T, dir string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "r1.cfg"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("!\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// freshEachLoad serves the example corpus as "example" through a Load
// hook that analyzes it with no previous Result, so every reload
// publishes a new generation although the files never change: the churn
// the tests of concurrent reloads need, where edits between reloads
// would race.
func freshEachLoad(c *Config) {
	an := core.NewAnalyzer()
	c.Nets = []NetSource{{Name: "example", Load: func(ctx context.Context) (*core.Result, error) {
		return an.AnalyzeDirResult(ctx, "example", exampleDir, nil)
	}}}
}

func mustReload(t *testing.T, s *Server) {
	t.Helper()
	if err := soleNet(t, s).Reload(context.Background()); err != nil {
		t.Fatalf("Reload: %v", err)
	}
}

func TestEndpointsServeDesign(t *testing.T) {
	s := newTestServer(t, nil)
	mustReload(t, s)
	if st := soleNet(t, s).State(); st.Reach == nil || st.Whatif == nil {
		t.Fatalf("fresh generation published without its analyses: reach nil %v, whatif nil %v", st.Reach == nil, st.Whatif == nil)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, m, _ := get(t, ts.URL+"/v1/nets/example/summary")
	if code != http.StatusOK {
		t.Fatalf("summary: got %d, want 200 (%v)", code, m)
	}
	if got := m["routers"].(float64); got != 6 {
		t.Errorf("summary routers = %v, want 6", got)
	}
	if got := m["seq"].(float64); got != 1 {
		t.Errorf("summary seq = %v, want 1", got)
	}

	code, m, _ = get(t, ts.URL+"/v1/nets/example/pathway?router=r1")
	if code != http.StatusOK {
		t.Fatalf("pathway: got %d, want 200 (%v)", code, m)
	}
	if m["router"] != "r1" {
		t.Errorf("pathway router = %v, want r1", m["router"])
	}

	code, m, _ = get(t, ts.URL+"/v1/nets/example/pathway?router=no-such-router")
	if code != http.StatusNotFound {
		t.Errorf("pathway unknown router: got %d, want 404 (%v)", code, m)
	}

	code, m, _ = get(t, ts.URL+"/v1/nets/example/reach")
	if code != http.StatusOK {
		t.Fatalf("reach: got %d, want 200 (%v)", code, m)
	}
	if _, ok := m["has_default_route"]; !ok {
		t.Errorf("reach: missing has_default_route in %v", m)
	}

	code, m, _ = get(t, ts.URL+"/v1/nets/example/reach?src=10.10.1.0/24&dst=10.10.2.0/24")
	if code != http.StatusOK {
		t.Fatalf("reach blocks: got %d, want 200 (%v)", code, m)
	}
	if _, ok := m["reachable"]; !ok {
		t.Errorf("reach blocks: missing reachable in %v", m)
	}

	code, m, _ = get(t, ts.URL+"/v1/nets/example/whatif")
	if code != http.StatusOK {
		t.Fatalf("whatif: got %d, want 200 (%v)", code, m)
	}

	// Text renderings reuse the CLI formatters.
	for _, u := range []string{"/v1/nets/example/summary?format=text", "/v1/nets/example/pathway?router=r1&format=text", "/v1/nets/example/whatif?format=text"} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatalf("GET %s: %v", u, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("%s: got %d with %d bytes, want 200 with text", u, resp.StatusCode, len(body))
		}
	}

	code, _, _ = get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Errorf("healthz: got %d, want 200", code)
	}
	code, m, _ = get(t, ts.URL+"/readyz")
	if code != http.StatusOK || m["ready"] != true {
		t.Errorf("readyz: got %d %v, want 200 ready", code, m)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{MetricReloads, MetricDesignSeq, telemetry.MetricHTTPRequests} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("/metrics: missing %s", want)
		}
	}
}

func TestQueryValidationAndMethods(t *testing.T) {
	s := newTestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/nets/example/summary?bogus=1", http.StatusBadRequest},
		{"/v1/nets/example/summary?format=xml", http.StatusBadRequest},
		{"/v1/nets/example/pathway", http.StatusBadRequest}, // missing router
		{"/v1/nets/example/reach?src=10.0.0.0/8", http.StatusBadRequest},
		{"/v1/nets/example/reach?src=not-a-prefix&dst=10.0.0.0/8", http.StatusBadRequest},
		{"/v1/nets/example/reload", http.StatusMethodNotAllowed}, // GET on a POST endpoint
	} {
		code, m, _ := get(t, ts.URL+tc.url)
		if code != tc.want {
			t.Errorf("%s: got %d, want %d (%v)", tc.url, code, tc.want, m)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/nets/example/summary", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/nets/example/summary: got %d, want 405", resp.StatusCode)
	}
}

// TestNoDesignYet covers the window between listen and first successful
// load: queries 503, healthz 200, readyz 503.
func TestNoDesignYet(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, _ := get(t, ts.URL+"/v1/nets/example/summary")
	if code != http.StatusServiceUnavailable {
		t.Errorf("summary before load: got %d, want 503", code)
	}
	code, _, _ = get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Errorf("healthz before load: got %d, want 200", code)
	}
	code, m, _ := get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || m["ready"] != false {
		t.Errorf("readyz before load: got %d %v, want 503 not-ready", code, m)
	}
}

// TestPanicRecovered is acceptance criterion (a): an injected handler
// panic yields a 500 on that request and the very next request succeeds.
func TestPanicRecovered(t *testing.T) {
	var reg *telemetry.Registry
	s := newTestServer(t, func(c *Config) {
		c.Faults = faultinject.New(1, faultinject.Rule{
			Site: "handler.summary", Kind: faultinject.KindPanic, Count: 1,
		})
		reg = c.Registry
	})
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, m, _ := get(t, ts.URL+"/v1/nets/example/summary")
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking request: got %d, want 500 (%v)", code, m)
	}
	if got := reg.Counter(MetricPanicsRecovered).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricPanicsRecovered, got)
	}
	code, m, _ = get(t, ts.URL+"/v1/nets/example/summary")
	if code != http.StatusOK {
		t.Fatalf("request after panic: got %d, want 200 (%v)", code, m)
	}
}

// TestReloadFailureKeepsLastGood is acceptance criterion (b): when a
// reload fails after retries, /readyz degrades (the network's own probe
// naming the error) but every query endpoint keeps serving the last-good
// design; a later successful reload clears the degradation.
func TestReloadFailureKeepsLastGood(t *testing.T) {
	s, edit := newEditableServer(t, func(c *Config) {
		// First load succeeds; the next two analyzer visits (reload
		// attempt + its one retry) fail; everything after succeeds.
		c.Faults = faultinject.New(1, faultinject.Rule{
			Site: SiteAnalyze, Kind: faultinject.KindError, After: 1, Count: 2,
		})
		c.ReloadRetries = 1
	})
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/nets/example/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing reload: got %d, want 500 (%v)", resp.StatusCode, m)
	}
	if m["note"] != "still serving the last-good design" {
		t.Errorf("failing reload: missing last-good note in %v", m)
	}

	code, m, _ := get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || m["degraded"] != true {
		t.Fatalf("readyz while degraded: got %d %v, want 503 degraded", code, m)
	}
	code, m, _ = get(t, ts.URL+"/readyz?net=example")
	if code != http.StatusServiceUnavailable || m["last_error"] == nil {
		t.Errorf("readyz?net=example while degraded: got %d, missing last_error in %v", code, m)
	}

	// The query plane is unaffected: last-good generation 1 still serves.
	code, m, _ = get(t, ts.URL+"/v1/nets/example/summary")
	if code != http.StatusOK {
		t.Fatalf("summary while degraded: got %d, want 200 (%v)", code, m)
	}
	if got := m["seq"].(float64); got != 1 {
		t.Errorf("summary while degraded: seq = %v, want last-good 1", got)
	}

	// Recovery: the fault window is exhausted, so this reload of an
	// edited config lands.
	edit()
	resp, err = http.Post(ts.URL+"/v1/nets/example/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovering reload: got %d, want 200", resp.StatusCode)
	}
	code, m, _ = get(t, ts.URL+"/readyz")
	if code != http.StatusOK || m["degraded"] != false {
		t.Errorf("readyz after recovery: got %d %v, want 200 not-degraded", code, m)
	}
	code, m, _ = get(t, ts.URL+"/v1/nets/example/summary")
	if code != http.StatusOK || m["seq"].(float64) != 2 {
		t.Errorf("summary after recovery: got %d seq=%v, want 200 seq=2", code, m["seq"])
	}
}

// TestPanickingReloadKeepsLastGood: a panic anywhere in a reload attempt
// is that attempt's error, not the end of the process. The reload fails
// after its retry, the network turns degraded with a reload.failed
// event, and the previous generation keeps answering every endpoint.
// The panic comes from the analyze fault site, or from a Load hook's
// design that panics in the design diff or in the reach build.
func TestPanickingReloadKeepsLastGood(t *testing.T) {
	good, err := core.NewAnalyzer().AnalyzeDirResult(
		telemetry.WithRegistry(context.Background(), telemetry.NewRegistry()), "example", exampleDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// loadThen serves the good design on the first load and broken()'s
	// on every later one.
	loadThen := func(broken func() *core.Design) func(*Config) {
		return func(c *Config) {
			loads := 0
			c.Nets = []NetSource{{Name: "example", Load: func(context.Context) (*core.Result, error) {
				if loads++; loads == 1 {
					return good, nil
				}
				return &core.Result{Design: broken()}, nil
			}}}
		}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"analyze fault", func(c *Config) {
			// The first load succeeds; the reload attempt and its retry
			// panic at the analyzer boundary.
			c.Faults = faultinject.New(1, faultinject.Rule{
				Site: SiteAnalyze, Kind: faultinject.KindPanic, After: 1, Count: 2,
			})
		}},
		{"design diff", loadThen(func() *core.Design {
			// No instance model: the diff against the serving design
			// dereferences it.
			d := *good.Design
			d.Instances = nil
			return &d
		})},
		{"reach build", loadThen(func() *core.Design {
			// A nil process-graph node: the diff never reads graph
			// nodes, the simulator does.
			g := *good.Design.Instances.Graph
			g.Nodes = append(g.Nodes[:len(g.Nodes):len(g.Nodes)], nil)
			m := *good.Design.Instances
			m.Graph = &g
			d := *good.Design
			d.Instances = &m
			return &d
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, func(c *Config) {
				c.ReloadRetries = 1
				tc.mutate(c)
			})
			mustReload(t, s)
			nw := soleNet(t, s)
			if err := nw.Reload(context.Background()); err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("panicking reload: err = %v, want the attempt's panic", err)
			}
			if !nw.Degraded() {
				t.Error("network not degraded after a panicking reload")
			}
			if got := s.reg.Counter(MetricReloads, lnet("example"), telemetry.L("result", "error")).Value(); got != 2 {
				t.Errorf("reloads_total{result=error} = %d, want 2 (attempt and retry)", got)
			}
			evs, _, _ := nw.Events().Since(0, 0)
			if len(evs) == 0 || evs[len(evs)-1].Type != EvtReloadFailed {
				t.Errorf("last event is not %s: %v", EvtReloadFailed, evs)
			}
			if st := nw.State(); st == nil || st.Seq != 1 || st.Reach == nil || st.Whatif == nil {
				t.Fatal("after the failed reload the network does not serve seq 1 with its analyses")
			}

			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for _, p := range []string{"summary", "pathway?router=r1", "reach",
				"reach?src=10.10.1.0/24&dst=10.10.2.0/24", "whatif"} {
				code, m, _ := get(t, ts.URL+"/v1/nets/example/"+p)
				if code != http.StatusOK || m["seq"] != float64(1) {
					t.Errorf("%s while degraded: got %d seq=%v, want 200 from last-good seq 1", p, code, m["seq"])
				}
			}
		})
	}
}

// TestShedUnderSaturation is acceptance criterion (c): with the limiter
// full, new queries get 429 + Retry-After while the in-flight ones run
// to completion.
func TestShedUnderSaturation(t *testing.T) {
	var reg *telemetry.Registry
	s := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 2
		// The first two summary requests stall inside the limiter.
		c.Faults = faultinject.New(1, faultinject.Rule{
			Site: "handler.summary", Kind: faultinject.KindDelay,
			Delay: 500 * time.Millisecond, Count: 2,
		})
		reg = c.Registry
	})
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, _ = get(t, ts.URL+"/v1/nets/example/summary")
		}(i)
	}
	// Wait for both to hold their slots before probing.
	deadline := time.Now().Add(3 * time.Second)
	for reg.Gauge(MetricInFlight, lnet("example")).Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight requests never took their limiter slots")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, m, hdr := get(t, ts.URL+"/v1/nets/example/summary")
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: got %d, want 429 (%v)", code, m)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("saturated request: missing Retry-After header")
	}
	if got := reg.Counter(MetricShed, lnet("example")).Value(); got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricShed, got)
	}

	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("in-flight request %d: got %d, want 200 despite shedding", i, c)
		}
	}
}

// TestRequestTimeout: a query slower than the per-request deadline
// returns 504 without wedging later requests.
func TestRequestTimeout(t *testing.T) {
	var reg *telemetry.Registry
	s := newTestServer(t, func(c *Config) {
		c.RequestTimeout = 75 * time.Millisecond
		c.Faults = faultinject.New(1, faultinject.Rule{
			Site: "handler.whatif", Kind: faultinject.KindDelay,
			Delay: 2 * time.Second, Count: 1,
		})
		reg = c.Registry
	})
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, m, _ := get(t, ts.URL+"/v1/nets/example/whatif")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("slow request: got %d, want 504 (%v)", code, m)
	}
	if got := reg.Counter(MetricTimeouts).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricTimeouts, got)
	}
	code, _, _ = get(t, ts.URL+"/v1/nets/example/whatif")
	if code != http.StatusOK {
		t.Errorf("request after timeout: got %d, want 200", code)
	}
}

// TestRunDrainsOnSIGTERM is acceptance criterion (d): a termination
// signal lets the in-flight request finish before Run returns.
func TestRunDrainsOnSIGTERM(t *testing.T) {
	var reg *telemetry.Registry
	s := newTestServer(t, func(c *Config) {
		c.ShutdownGrace = 5 * time.Second
		c.Faults = faultinject.New(1, faultinject.Rule{
			Site: "handler.summary", Kind: faultinject.KindDelay,
			Delay: 300 * time.Millisecond, Count: 1,
		})
		reg = c.Registry
	})
	mustReload(t, s)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(context.Background(), ln, sigs) }()
	base := fmt.Sprintf("http://%s", ln.Addr())

	reqDone := make(chan int, 1)
	go func() {
		code, _, _ := get(t, base+"/v1/nets/example/summary")
		reqDone <- code
	}()
	deadline := time.Now().Add(3 * time.Second)
	for reg.Gauge(MetricInFlight, lnet("example")).Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	sigs <- syscall.SIGTERM

	select {
	case code := <-reqDone:
		if code != http.StatusOK {
			t.Errorf("in-flight request during drain: got %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed during drain")
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Errorf("Run after SIGTERM: %v, want nil (clean drain)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run never returned after SIGTERM")
	}
}

// TestSIGHUPReloads: the hangup signal triggers a background reload that
// bumps the served generation.
func TestSIGHUPReloads(t *testing.T) {
	s, edit := newEditableServer(t, nil)
	mustReload(t, s)
	edit()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigs := make(chan os.Signal, 2)
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(context.Background(), ln, sigs) }()

	sigs <- syscall.SIGHUP
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := soleNet(t, s).State(); st != nil && st.Seq >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP never produced a new design generation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sigs <- syscall.SIGTERM
	if err := <-runDone; err != nil {
		t.Errorf("Run: %v", err)
	}
}

// TestConcurrentQueriesDuringReload is the tier-2 race stress: queries
// hammer every endpoint while the design pointer is swapped repeatedly.
// Each response must be coherent — one generation end to end — which the
// race detector plus the seq consistency check enforce.
func TestConcurrentQueriesDuringReload(t *testing.T) {
	s, edit := newEditableServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	urls := []string{
		"/v1/nets/example/summary", "/v1/nets/example/pathway?router=r1", "/v1/nets/example/reach",
		"/v1/nets/example/reach?src=10.10.1.0/24&dst=10.10.2.0/24", "/v1/nets/example/whatif",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
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
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("%s: status %d", u, resp.StatusCode):
					default:
					}
					return
				}
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		edit()
		mustReload(t, s)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("query during reload swap: %s", e)
	}
	if st := soleNet(t, s).State(); st == nil || st.Seq != 6 {
		t.Errorf("final generation = %v, want 6", st)
	}
}

// TestLoadHookReplacesDirectory: the in-memory Load hook (used by the
// smoke harness) feeds the same pipeline as directory analysis.
func TestLoadHookReplacesDirectory(t *testing.T) {
	an := core.NewAnalyzer()
	configs := map[string]string{
		"a.cfg": "hostname a\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n",
		"b.cfg": "hostname b\ninterface Ethernet0\n ip address 10.0.0.2 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n",
	}
	s := newTestServer(t, func(c *Config) {
		c.Nets = []NetSource{{Name: "mem", Load: func(ctx context.Context) (*core.Result, error) {
			return an.AnalyzeConfigsResult(ctx, "mem", configs)
		}}}
	})
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, m, _ := get(t, ts.URL+"/v1/nets/mem/summary")
	if code != http.StatusOK || m["routers"].(float64) != 2 {
		t.Fatalf("summary over Load hook: got %d %v, want 200 with 2 routers", code, m)
	}
}
