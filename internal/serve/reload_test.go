package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"routinglens/internal/core"
	"routinglens/internal/faultinject"
	"routinglens/internal/ingest"
	"routinglens/internal/telemetry"
)

// TestCorpusDirNets: a corpus root serves one network per subdirectory,
// in name order. Plain files at the root (manifests, READMEs) are not
// networks, and a root with no network directory is refused.
func TestCorpusDirNets(t *testing.T) {
	root := t.TempDir()
	for _, n := range []string{"netB", "netA", "netC"} {
		if err := os.Mkdir(filepath.Join(root, n), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(root, "MANIFEST.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	srcs, err := Config{CorpusDir: root}.netSources()
	if err != nil {
		t.Fatalf("netSources: %v", err)
	}
	if len(srcs) != 3 {
		t.Fatalf("discovered %d networks, want 3: %v", len(srcs), srcs)
	}
	for i, want := range []string{"netA", "netB", "netC"} {
		if srcs[i].Name != want {
			t.Errorf("srcs[%d].Name = %q, want %q (sorted)", i, srcs[i].Name, want)
		}
		if srcs[i].Dir != filepath.Join(root, want) {
			t.Errorf("srcs[%d].Dir = %q", i, srcs[i].Dir)
		}
	}

	if _, err := (Config{CorpusDir: t.TempDir()}).netSources(); err == nil {
		t.Error("empty corpus root did not error")
	}
}

// TestBackoffDoesNotStarveFleet: with one reload slot for the whole
// fleet, a network backing off between failing attempts holds no slot,
// so the healthy networks load while it waits instead of after it gives
// up.
func TestBackoffDoesNotStarveFleet(t *testing.T) {
	healthy := func(name string) func(context.Context) (*core.Result, error) {
		an := core.NewAnalyzer()
		return func(ctx context.Context) (*core.Result, error) {
			return an.AnalyzeDirResult(ctx, name, exampleDir, nil)
		}
	}
	s := newTestServer(t, func(c *Config) {
		c.Nets = []NetSource{
			{Name: "a-broken", Load: func(context.Context) (*core.Result, error) {
				return nil, errors.New("configs unreadable")
			}},
			{Name: "b", Load: healthy("b")},
			{Name: "c", Load: healthy("c")},
		}
		c.ReloadWorkers = 1
		c.ReloadRetries = 2
		// The broken network backs off 300ms and then 600ms before it
		// gives up.
		c.ReloadBackoff = 300 * time.Millisecond
	})
	done := make(chan error, 1)
	go func() { done <- s.ReloadAll(context.Background()) }()

	broken := s.Net("a-broken")
	for s.Net("b").State() == nil || s.Net("c").State() == nil {
		if broken.Degraded() {
			t.Fatal("the healthy networks were still unserved when the failing network gave up")
		}
		time.Sleep(time.Millisecond)
	}
	if broken.Degraded() {
		t.Error("the failing network gave up before the healthy networks served")
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "a-broken") {
		t.Errorf("ReloadAll = %v, want the failing network's error", err)
	}
	if !broken.Degraded() {
		t.Error("the failing network is not degraded after ReloadAll")
	}
}

// TestUnchangedInputKeepsGeneration: with no snapshot directory, input
// byte-identical to what a network serves keeps the serving generation
// whatever brings it: a manual reload, the config watcher after every
// file was touched but not changed, and a push of the same files. Each
// answers "unchanged" at the serving seq, publishes no generation.swap,
// and leaves the query cache answering.
func TestUnchangedInputKeepsGeneration(t *testing.T) {
	s, dir := newIngestServer(t, func(c *Config) { c.WatchInterval = 5 * time.Millisecond })
	mustReload(t, s)
	nw := s.Net("push")
	served := nw.State()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rawGet(t, ts.URL+"/v1/nets/push/summary")
	kept := func(what string) {
		t.Helper()
		if nw.State() != served {
			t.Fatalf("%s: the serving generation was replaced (seq %d)", what, nw.State().Seq)
		}
		if n := countEvents(nw, EvtSwap); n != 1 {
			t.Errorf("%s: %d generation.swap events, want only the first load's", what, n)
		}
		if _, _, h := rawGet(t, ts.URL+"/v1/nets/push/summary"); h.Get("X-Cache") != "hit" {
			t.Errorf("%s: the query cache lost its answer", what)
		}
	}
	unchanged := func(what string, code int, body map[string]any) {
		t.Helper()
		if code != http.StatusOK || body["result"] != "unchanged" || body["seq"] != float64(1) {
			t.Errorf("%s: got %d %v, want 200 unchanged at seq 1", what, code, body)
		}
		kept(what)
	}
	kept("first load")

	resp, err := http.Post(ts.URL+"/v1/nets/push/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	unchanged("manual reload", resp.StatusCode, body)

	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		s.watchWG.Wait()
	}()
	s.StartWatchers(ctx)
	polls := s.reg.Counter(ingest.MetricPolls, lnet("push"), telemetry.L("result", "unchanged"))
	deadline := time.Now().Add(5 * time.Second)
	for polls.Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	later := time.Now().Add(time.Hour)
	for name := range dirFiles(t, dir) {
		if err := os.Chtimes(filepath.Join(dir, name), later, later); err != nil {
			t.Fatal(err)
		}
	}
	reloads := s.reg.Counter(MetricReloads, lnet("push"), telemetry.L("result", "unchanged"))
	for reloads.Value() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if reloads.Value() < 2 {
		t.Fatal("the watcher never reloaded the touched files")
	}
	kept("watcher reload")

	resp, err = http.Post(ts.URL+"/v1/nets/push/configs", "application/gzip", bytes.NewReader(archiveOf(t, dirFiles(t, dir))))
	if err != nil {
		t.Fatal(err)
	}
	body = nil
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	unchanged("identical push", resp.StatusCode, body)
	if got := s.reg.Counter(MetricReloads, lnet("push"), telemetry.L("result", "ok")).Value(); got != 1 {
		t.Errorf("reloads_total{result=ok} = %d, want 1 (the first load)", got)
	}
}

// TestReloadAnswersItsOwnOutcome: a reload that queues behind another
// answers what it did itself. The first reload, of an edited config, is
// held at the analyzer while a second one queues; the second finds the
// input it analyzes already served, keeps the warm generation, and must
// say so — "unchanged" at the seq it kept — as its counter does.
func TestReloadAnswersItsOwnOutcome(t *testing.T) {
	s, dir := newIngestServer(t, func(c *Config) {
		// Visit 1 is the initial load; visit 2, the first reload, is held.
		c.Faults = faultinject.New(1, faultinject.Rule{
			Site: SiteAnalyze, Kind: faultinject.KindDelay, Delay: 400 * time.Millisecond, After: 1, Count: 1,
		})
	})
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := os.WriteFile(filepath.Join(dir, "r7.cfg"), []byte("hostname r7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	postReload := func() (int, map[string]any, error) {
		resp, err := http.Post(ts.URL+"/v1/nets/push/reload", "", nil)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var m map[string]any
		err = json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m, err
	}

	type answer struct {
		code int
		body map[string]any
		err  error
	}
	first := make(chan answer, 1)
	go func() {
		code, m, err := postReload()
		first <- answer{code, m, err}
	}()
	held := s.reg.Counter(faultinject.MetricFaultsInjected,
		telemetry.L("site", SiteAnalyze), telemetry.L("kind", "delay"))
	deadline := time.Now().Add(5 * time.Second)
	for held.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the first reload never reached the analyzer")
		}
		time.Sleep(time.Millisecond)
	}
	code, second, err := postReload()
	if err != nil {
		t.Fatal(err)
	}
	a := <-first
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.code != http.StatusOK || a.body["result"] != "swapped" || a.body["seq"] != float64(2) {
		t.Errorf("first reload: got %d %v, want 200 swapped at seq 2", a.code, a.body)
	}
	if code != http.StatusOK || second["result"] != "unchanged" || second["seq"] != float64(2) {
		t.Errorf("queued reload: got %d %v, want 200 unchanged at the kept seq 2", code, second)
	}
	for result, want := range map[string]int64{"ok": 2, "unchanged": 1} {
		if got := s.reg.Counter(MetricReloads, lnet("push"), telemetry.L("result", result)).Value(); got != want {
			t.Errorf("reloads_total{result=%s} = %d, want %d", result, got, want)
		}
	}
}

// TestCancelledBackoffCountsOnce: a reload whose context ends while it
// backs off after a failed attempt gives up without another attempt. It
// counts the one attempt that ran, and it degrades the network with a
// reload.failed event.
func TestCancelledBackoffCountsOnce(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		// The initial load succeeds; every later analysis fails.
		c.Faults = faultinject.New(1, faultinject.Rule{Site: SiteAnalyze, Kind: faultinject.KindError, After: 1})
		c.ReloadRetries = 1
		c.ReloadBackoff = time.Minute
	})
	mustReload(t, s)
	nw := soleNet(t, s)
	errs := s.reg.Counter(MetricReloads, lnet("example"), telemetry.L("result", "error"))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- nw.Reload(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for errs.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the first attempt never failed")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Reload = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reload did not return after its context was cancelled during the backoff")
	}
	if got := errs.Value(); got != 1 {
		t.Errorf("reloads_total{result=error} = %d, want 1 (one attempt ran)", got)
	}
	if !nw.Degraded() {
		t.Error("network not degraded after the cancelled reload")
	}
	evs, _, _ := nw.Events().Since(0, 0)
	if len(evs) == 0 || evs[len(evs)-1].Type != EvtReloadFailed {
		t.Errorf("last event is not %s: %v", EvtReloadFailed, evs)
	}
}
