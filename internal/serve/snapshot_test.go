package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"routinglens/internal/core"
	"routinglens/internal/snapshot"
	"routinglens/internal/telemetry"
)

// copyCorpus clones the example corpus into a fresh directory named
// name, so tests can edit files and pin the network name (and therefore
// the snapshot file name) across server restarts.
func copyCorpus(t *testing.T, name string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(exampleDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(exampleDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// snapServer builds a Server over dir, served as one network named after
// the directory's base name, with the given snapshot directory ("" for
// none).
func snapServer(t *testing.T, dir, snapDir string) *Server {
	t.Helper()
	return newTestServer(t, func(cfg *Config) {
		cfg.Nets = []NetSource{{Name: filepath.Base(dir), Dir: dir}}
		cfg.SnapshotDir = snapDir
	})
}

// netCounterVal reads a per-net counter from the server's registry.
func netCounterVal(s *Server, metric, net string) int64 {
	return s.reg.Counter(metric, telemetry.L("net", net)).Value()
}

// bodyWithoutTimes decodes a JSON body and strips load-time fields that
// legitimately differ between two otherwise-identical servers.
func bodyWithoutTimes(t *testing.T, m map[string]any) map[string]any {
	t.Helper()
	out := make(map[string]any, len(m))
	for k, v := range m {
		if k == "loaded_at" {
			continue
		}
		out[k] = v
	}
	return out
}

func TestSnapshotColdStartAndUnchangedReload(t *testing.T) {
	dir := copyCorpus(t, "snapnet")
	snapDir := t.TempDir()

	// First server analyzes from scratch and writes the snapshot.
	s1 := snapServer(t, dir, snapDir)
	mustReload(t, s1)
	if got := netCounterVal(s1, core.MetricSnapshotWrites, "snapnet"); got != 1 {
		t.Fatalf("writes after first load = %d, want 1", got)
	}
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()
	_, base, _ := get(t, ts1.URL+"/v1/nets/snapnet/summary")

	// Second server cold-starts from the snapshot.
	s2 := snapServer(t, dir, snapDir)
	mustReload(t, s2)
	if got := netCounterVal(s2, core.MetricSnapshotLoads, "snapnet"); got != 1 {
		t.Fatalf("loads after cold start = %d, want 1", got)
	}
	st := s2.Net("snapnet").State()
	if st == nil || !st.Res.FromSnapshot {
		t.Fatalf("cold start did not restore from snapshot (state %+v)", st)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, got, _ := get(t, ts2.URL+"/v1/nets/snapnet/summary")
	if !reflect.DeepEqual(bodyWithoutTimes(t, base), bodyWithoutTimes(t, got)) {
		t.Errorf("snapshot-restored summary differs:\n full: %v\n snap: %v", base, got)
	}

	// A no-change reload keeps the serving generation: same *State, no
	// seq bump, no query-cache purge, result counted "unchanged".
	resp, err := http.Post(ts2.URL+"/v1/nets/snapnet/reload", "", nil)
	if err != nil {
		t.Fatalf("POST reload: %v", err)
	}
	var rm map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&rm); err != nil {
		t.Fatalf("decoding reload response: %v", err)
	}
	resp.Body.Close()
	if rm["result"] != "unchanged" {
		t.Errorf("reload response result = %v, want unchanged (%v)", rm["result"], rm)
	}
	if after := s2.Net("snapnet").State(); after != st {
		t.Errorf("no-change reload swapped the generation (seq %d -> %d)", st.Seq, after.Seq)
	}
	unchanged := s2.reg.Counter(MetricReloads, lnet("snapnet"), telemetry.L("result", "unchanged")).Value()
	if unchanged != 1 {
		t.Errorf("reloads{result=unchanged} = %d, want 1", unchanged)
	}

	// Editing a file invalidates the key: the next reload re-analyzes,
	// swaps a new generation, and refreshes the snapshot.
	p := filepath.Join(dir, "r1.cfg")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, append(data, []byte("! edited\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	mustReload(t, s2)
	after := s2.Net("snapnet").State()
	if after == st {
		t.Fatal("reload after edit kept the old generation")
	}
	if after.Res.FromSnapshot {
		t.Error("reload after edit claims to come from the snapshot")
	}
	if got := netCounterVal(s2, core.MetricSnapshotWrites, "snapnet"); got != 1 {
		t.Errorf("writes after edited reload = %d, want 1 (refresh)", got)
	}
	// Only the cold start read the snapshot; neither reload did.
	for metric, want := range map[string]int64{
		core.MetricSnapshotLoads: 1, core.MetricSnapshotMisses: 0, core.MetricSnapshotInvalid: 0,
	} {
		if got := netCounterVal(s2, metric, "snapnet"); got != want {
			t.Errorf("%s = %d after two reloads, want the cold start's %d", metric, got, want)
		}
	}
}

// TestSnapshotColdStartWarmsReach: a generation restored from a snapshot,
// like every other, has its reach and what-if analyses built before the
// reload that publishes it returns, so no query pays for or races a
// simulation.
func TestSnapshotColdStartWarmsReach(t *testing.T) {
	dir := copyCorpus(t, "snapwarm")
	snapDir := t.TempDir()
	mustReload(t, snapServer(t, dir, snapDir))

	s := snapServer(t, dir, snapDir)
	mustReload(t, s)
	st := s.Net("snapwarm").State()
	if !st.Res.FromSnapshot {
		t.Fatal("cold start did not restore from the snapshot")
	}
	if st.Reach == nil || st.Whatif == nil {
		t.Errorf("analyses not resident when the reload returned: reach nil %v, whatif nil %v", st.Reach == nil, st.Whatif == nil)
	}
}

func TestSnapshotCorruptionServesIdenticalAnswers(t *testing.T) {
	dir := copyCorpus(t, "snapcorrupt")
	snapDir := t.TempDir()

	// Baseline: no snapshots at all.
	plain := snapServer(t, dir, "")
	mustReload(t, plain)
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()

	// Seed a snapshot, then corrupt it.
	seed := snapServer(t, dir, snapDir)
	mustReload(t, seed)
	path := filepath.Join(snapDir, "snapcorrupt"+snapshot.FileExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading snapshot: %v", err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := snapServer(t, dir, snapDir)
	mustReload(t, s)
	if got := netCounterVal(s, core.MetricSnapshotInvalid, "snapcorrupt"); got != 1 {
		t.Errorf("invalid after corrupt load = %d, want 1", got)
	}
	if st := s.Net("snapcorrupt").State(); st.Res.FromSnapshot {
		t.Error("corrupt snapshot claims to have restored")
	}
	// Full re-analysis refreshed the snapshot; the corruption healed.
	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading refreshed snapshot: %v", err)
	}
	if bytes.Equal(healed, data) {
		t.Error("corrupt snapshot was not rewritten")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// "Slower, never wrong": every query answer matches the
	// never-snapshotted server byte for byte (modulo load timestamps).
	for _, ep := range []string{
		"/v1/nets/snapcorrupt/summary",
		"/v1/nets/snapcorrupt/pathway?router=r1",
		"/v1/nets/snapcorrupt/reach",
		"/v1/nets/snapcorrupt/reach?src=10.10.1.0/24&dst=10.10.2.0/24",
		"/v1/nets/snapcorrupt/whatif",
	} {
		_, want, _ := get(t, tsPlain.URL+ep)
		_, got, _ := get(t, ts.URL+ep)
		if !reflect.DeepEqual(bodyWithoutTimes(t, want), bodyWithoutTimes(t, got)) {
			t.Errorf("%s differs after corrupt-snapshot fallback:\n full: %v\n snap: %v", ep, want, got)
		}
	}
}

// TestSnapshotLoadDuringReloadStress hammers a snapshot-backed network
// with concurrent reloads, queries, and config edits. Run under -race
// -count=3 in tier2; the assertion here is only that every query that
// lands gets a coherent design and nothing panics or deadlocks.
func TestSnapshotLoadDuringReloadStress(t *testing.T) {
	dir := copyCorpus(t, "snapstress")
	snapDir := t.TempDir()
	s := snapServer(t, dir, snapDir)
	mustReload(t, s)
	nw := s.Net("snapstress")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	p := filepath.Join(dir, "r2.cfg")
	orig, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 8
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Reload errors are impossible here (the corpus always
				// parses); surface any as test failures.
				if err := nw.Reload(context.Background()); err != nil {
					t.Errorf("concurrent reload: %v", err)
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				code, m, _ := get(t, ts.URL+"/v1/nets/snapstress/summary")
				if code != 200 {
					t.Errorf("summary during stress: got %d (%v)", code, m)
				} else if m["routers"].(float64) != 6 {
					t.Errorf("summary during stress: routers = %v", m["routers"])
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			edited := append(append([]byte{}, orig...), []byte("! stress\n")...)
			if err := os.WriteFile(p, edited, 0o644); err != nil {
				t.Errorf("edit: %v", err)
			}
			if err := os.WriteFile(p, orig, 0o644); err != nil {
				t.Errorf("restore: %v", err)
			}
		}
	}()
	wg.Wait()

	// Converge: one final reload must land a coherent design and leave a
	// loadable snapshot behind.
	mustReload(t, s)
	code, m, _ := get(t, ts.URL+"/v1/nets/snapstress/summary")
	if code != 200 || m["routers"].(float64) != 6 {
		t.Fatalf("post-stress summary: code %d, body %v", code, m)
	}
	snap, err := snapshot.Load(filepath.Join(snapDir, "snapstress"+snapshot.FileExt))
	if err != nil {
		t.Fatalf("post-stress snapshot unreadable: %v", err)
	}
	if len(snap.Devices) != 6 {
		t.Fatalf("post-stress snapshot has %d devices, want 6", len(snap.Devices))
	}
}
