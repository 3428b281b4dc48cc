package serve

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routinglens/internal/events"
	"routinglens/internal/faultinject"
	"routinglens/internal/ingest"
	"routinglens/internal/snapshot"
	"routinglens/internal/telemetry"
)

// copyExample copies the six-router example corpus into a fresh temp
// dir the test may mutate.
func copyExample(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(exampleDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(exampleDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// archiveOf builds a tar.gz of the given name->content files.
func archiveOf(t testing.TB, files map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	// Deterministic order keeps archives comparable across builds.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, name := range names {
		body := files[name]
		if err := tw.WriteHeader(&tar.Header{
			Name: name, Typeflag: tar.TypeReg, Mode: 0o644, Size: int64(len(body)),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(tw, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dirFiles reads a config directory into a name->content map.
func dirFiles(t testing.TB, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// postBody POSTs raw bytes and returns status plus parsed JSON body.
func postBody(t testing.TB, url string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/gzip", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	return resp.StatusCode, m
}

// newIngestServer builds a directory-backed server named "push" over a
// mutable copy of the example corpus, with the admission gate armed the
// way cmd/rlensd arms it by default.
func newIngestServer(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	dir := copyExample(t)
	s := newTestServer(t, func(c *Config) {
		c.Nets = []NetSource{{Name: "push", Dir: dir}}
		c.IngestDir = t.TempDir()
		c.Admission = &AdmissionPolicy{MaxRouterLossPct: 50, MinRouters: 1, MaxErrorDiags: -1, MaxCompartmentDelta: -1}
		if mutate != nil {
			mutate(c)
		}
	})
	return s, dir
}

// mustSignature reads a directory's stat signature.
func mustSignature(t testing.TB, dir string) string {
	t.Helper()
	sig, err := ingest.DirSignature(dir)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// TestPushSwapsGeneration is the happy path: a pushed archive is
// staged, analyzed, admitted, promoted into the generation chain, and
// swapped in — and the original configuration directory is never
// touched.
func TestPushSwapsGeneration(t *testing.T) {
	s, dir := newIngestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	liveSig := mustSignature(t, dir)

	files := dirFiles(t, dir)
	files["r7.cfg"] = "hostname r7\ninterface Ethernet0\n ip address 10.1.9.1 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n"
	code, m := postBody(t, ts.URL+"/v1/nets/push/configs", archiveOf(t, files))
	if code != http.StatusOK {
		t.Fatalf("push: got %d, want 200 (%v)", code, m)
	}
	if m["result"] != "swapped" || m["ok"] != true {
		t.Errorf("push: got result=%v ok=%v, want swapped/true", m["result"], m["ok"])
	}
	if m["generation"] == nil || m["files"].(float64) != 7 {
		t.Errorf("push: missing generation/files in %v", m)
	}
	if got := m["seq"].(float64); got != 2 {
		t.Errorf("push: seq = %v, want 2", got)
	}
	if st := s.Net("push").State(); st.Reach == nil || st.Whatif == nil {
		t.Errorf("pushed generation published without its analyses: reach nil %v, whatif nil %v", st.Reach == nil, st.Whatif == nil)
	}
	code, sum, _ := get(t, ts.URL+"/v1/nets/push/summary")
	if code != http.StatusOK || sum["routers"].(float64) != 7 {
		t.Fatalf("post-push summary: got %d routers=%v, want 200/7", code, sum["routers"])
	}
	if got := mustSignature(t, dir); got != liveSig {
		t.Errorf("push mutated the live configuration directory")
	}
	// The promoted generation is now the active dir: a manual reload
	// re-analyzes it, not the stale source directory.
	if !strings.Contains(s.Net("push").activeDirPath(), "gen-") {
		t.Errorf("active dir = %q, want a promoted generation", s.Net("push").activeDirPath())
	}
	// The swap cleared nothing it shouldn't: no quarantine.
	code, q, _ := get(t, ts.URL+"/v1/nets/push/quarantine")
	if code != http.StatusOK || q["quarantined"] != false {
		t.Errorf("quarantine after clean push: got %d %v, want 200/false", code, q)
	}
}

// TestPushKeepsNetworkName: a push is analyzed from a staging
// directory and later reloads read the promoted generation directory,
// but the design and its snapshot stay named after the network. After
// two pushes and a no-change reload the summary still says "push" and
// the snapshot directory holds push.rlsnap alone.
func TestPushKeepsNetworkName(t *testing.T) {
	snapDir := t.TempDir()
	s, dir := newIngestServer(t, func(c *Config) { c.SnapshotDir = snapDir })
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	files := dirFiles(t, dir)
	for _, add := range []struct{ name, addr string }{{"r7", "10.1.9.1"}, {"r8", "10.1.9.5"}} {
		files[add.name+".cfg"] = "hostname " + add.name + "\ninterface Ethernet0\n ip address " + add.addr +
			" 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n"
		code, m := postBody(t, ts.URL+"/v1/nets/push/configs", archiveOf(t, files))
		if code != http.StatusOK || m["result"] != "swapped" {
			t.Fatalf("push adding %s: got %d %v, want 200 swapped", add.name, code, m)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/nets/push/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rm map[string]any
	json.NewDecoder(resp.Body).Decode(&rm)
	resp.Body.Close()
	if rm["result"] != "unchanged" {
		t.Errorf("reload of the promoted generation: got %v, want unchanged", rm)
	}

	code, sum, _ := get(t, ts.URL+"/v1/nets/push/summary")
	if code != http.StatusOK || sum["network"] != "push" || sum["routers"].(float64) != 8 {
		t.Errorf("summary after two pushes: got %d network=%v routers=%v, want 200 push 8",
			code, sum["network"], sum["routers"])
	}
	ents, err := os.ReadDir(snapDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "push"+snapshot.FileExt {
		t.Errorf("snapshot dir holds %v, want only push%s", names, snapshot.FileExt)
	}
}

// TestCatastrophicPushQuarantined is the headline acceptance test: a
// push that would delete most of the network is rejected 422 by
// admission control, the rejection is quarantined and observable, and
// queries keep serving the last-good design byte-identically.
func TestCatastrophicPushQuarantined(t *testing.T) {
	s, dir := newIngestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	codeBefore, bodyBefore, _ := rawGet(t, ts.URL+"/v1/nets/push/summary")
	if codeBefore != http.StatusOK {
		t.Fatalf("summary before: %d", codeBefore)
	}
	liveSig := mustSignature(t, dir)

	// One surviving router out of six: 83% loss, over the 50% guardrail.
	files := dirFiles(t, dir)
	lone := map[string]string{"r1.cfg": files["r1.cfg"]}
	code, m := postBody(t, ts.URL+"/v1/nets/push/configs", archiveOf(t, lone))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("catastrophic push: got %d, want 422 (%v)", code, m)
	}
	if m["code"] != codeDesignRejected || m["result"] != "rejected" {
		t.Errorf("catastrophic push: got code=%v result=%v, want design_rejected/rejected", m["code"], m["result"])
	}
	reasons, _ := m["reasons"].([]any)
	if len(reasons) == 0 {
		t.Errorf("catastrophic push: no reasons in %v", m)
	}
	if m["serving_seq"].(float64) != 1 {
		t.Errorf("catastrophic push: serving_seq = %v, want 1", m["serving_seq"])
	}

	// The network is NOT degraded — this is a rejection, not a failure.
	if s.Net("push").Degraded() {
		t.Errorf("admission rejection degraded the network")
	}
	code, rz, _ := get(t, ts.URL+"/readyz?net=push")
	if code != http.StatusOK {
		t.Errorf("readyz after rejection: got %d, want 200 (%v)", code, rz)
	}
	if rz["quarantined"] != true {
		t.Errorf("readyz after rejection: quarantined = %v, want true", rz["quarantined"])
	}

	// Quarantine is observable and complete.
	code, q, _ := get(t, ts.URL+"/v1/nets/push/quarantine")
	if code != http.StatusOK || q["quarantined"] != true {
		t.Fatalf("quarantine: got %d %v, want 200/true", code, q)
	}
	rec := q["record"].(map[string]any)
	if rec["trigger"] != "push" || rec["serving_seq"].(float64) != 1 {
		t.Errorf("quarantine record: got trigger=%v serving_seq=%v", rec["trigger"], rec["serving_seq"])
	}
	loss := rec["loss"].(map[string]any)
	if loss["routers_removed"].(float64) != 5 || loss["routers_before"].(float64) != 6 {
		t.Errorf("quarantine loss = %v, want 5 of 6 removed", loss)
	}

	// Queries serve the last-good design byte-identically.
	codeAfter, bodyAfter, _ := rawGet(t, ts.URL+"/v1/nets/push/summary")
	if codeAfter != http.StatusOK || !bytes.Equal(bodyBefore, bodyAfter) {
		t.Errorf("summary changed across a rejected push:\nbefore: %s\nafter:  %s", bodyBefore, bodyAfter)
	}
	if got := mustSignature(t, dir); got != liveSig {
		t.Errorf("rejected push mutated the live configuration directory")
	}

	// The rejection is counted and published.
	if got := s.reg.Counter(MetricReloads, lnet("push"), telemetry.L("result", "rejected")).Value(); got != 1 {
		t.Errorf("reloads_total{result=rejected} = %v, want 1", got)
	}
	if got := s.reg.Counter(ingest.MetricPushes, lnet("push"), telemetry.L("result", "rejected")).Value(); got != 1 {
		t.Errorf("ingest_pushes_total{result=rejected} = %v, want 1", got)
	}
	evs, _, _ := s.Net("push").Events().Since(0, 0)
	found := false
	for _, ev := range evs {
		if ev.Type == EvtDesignRejected {
			found = true
		}
	}
	if !found {
		t.Errorf("no design.rejected event in %v", evs)
	}

	// ?force=1 is the explicit override: the same archive swaps in.
	code, m = postBody(t, ts.URL+"/v1/nets/push/configs?force=1", archiveOf(t, lone))
	if code != http.StatusOK || m["result"] != "swapped" {
		t.Fatalf("forced push: got %d result=%v, want 200/swapped (%v)", code, m["result"], m)
	}
	// A successful swap clears the quarantine.
	code, q, _ = get(t, ts.URL+"/v1/nets/push/quarantine")
	if code != http.StatusOK || q["quarantined"] != false {
		t.Errorf("quarantine after forced swap: got %d %v, want 200/false", code, q)
	}
}

// TestMaliciousPushRejected4xx: hostile or malformed archives are
// rejected with a 4xx and the proper code, never reach the reload
// machinery, and leave both the live directory and the generation
// store untouched.
func TestMaliciousPushRejected4xx(t *testing.T) {
	s, dir := newIngestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	liveSig := mustSignature(t, dir)
	seqBefore := s.Net("push").State().Seq

	cases := []struct {
		name     string
		body     []byte
		wantCode int
		wantErr  string
	}{
		{"not gzip", []byte("certainly not a gzip stream"), http.StatusBadRequest, codeBadArchive},
		{"path traversal", archiveOf(t, map[string]string{"../../escape.cfg": "hostname evil"}), http.StatusBadRequest, codeBadArchive},
		{"absolute path", archiveOf(t, map[string]string{"/etc/evil.cfg": "hostname evil"}), http.StatusBadRequest, codeBadArchive},
		{"empty archive", archiveOf(t, nil), http.StatusBadRequest, codeBadArchive},
		{"truncated", archiveOf(t, map[string]string{"r1.cfg": "hostname r1"})[:15], http.StatusBadRequest, codeBadArchive},
	}
	for _, tc := range cases {
		code, m := postBody(t, ts.URL+"/v1/nets/push/configs", tc.body)
		if code != tc.wantCode || m["code"] != tc.wantErr {
			t.Errorf("%s: got %d code=%v, want %d %s (%v)", tc.name, code, m["code"], tc.wantCode, tc.wantErr, m)
		}
	}

	// A symlink smuggler is also an archive error.
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	tw.WriteHeader(&tar.Header{Name: "ln.cfg", Typeflag: tar.TypeSymlink, Linkname: "/etc/passwd"})
	tw.Close()
	gz.Close()
	code, m := postBody(t, ts.URL+"/v1/nets/push/configs", buf.Bytes())
	if code != http.StatusBadRequest || m["code"] != codeBadArchive {
		t.Errorf("symlink archive: got %d code=%v, want 400 bad_archive", code, m["code"])
	}

	// An over-limit archive is 413 too_large.
	big := archiveOf(t, map[string]string{"huge.cfg": strings.Repeat("x", int(ingest.DefaultLimits.MaxFileBytes)+1)})
	code, m = postBody(t, ts.URL+"/v1/nets/push/configs", big)
	if code != http.StatusRequestEntityTooLarge || m["code"] != codeTooLarge {
		t.Errorf("oversized archive: got %d code=%v, want 413 too_large", code, m["code"])
	}

	// Nothing moved: same serving generation, same live directory, no
	// leftover staging or generation directories.
	if got := s.Net("push").State().Seq; got != seqBefore {
		t.Errorf("malicious pushes advanced the generation: %d -> %d", seqBefore, got)
	}
	if got := mustSignature(t, dir); got != liveSig {
		t.Errorf("malicious push mutated the live configuration directory")
	}
	netRoot := filepath.Join(s.cfg.IngestDir, "push")
	if ents, err := os.ReadDir(netRoot); err == nil {
		for _, e := range ents {
			t.Errorf("leftover entry in generation store after rejected pushes: %s", e.Name())
		}
	}
	if got := s.reg.Counter(ingest.MetricPushes, lnet("push"), telemetry.L("result", "bad_archive")).Value(); got < 6 {
		t.Errorf("ingest_pushes_total{result=bad_archive} = %v, want >= 6", got)
	}
}

// TestRollbackRestoresPreviousGeneration: two pushes build a generation
// chain; rollback repoints at the earlier generation and the next
// reload swaps its design back in.
func TestRollbackRestoresPreviousGeneration(t *testing.T) {
	s, dir := newIngestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Rollback before any push: nothing to roll back.
	resp, err := http.Post(ts.URL+"/v1/nets/push/configs/rollback", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || m["code"] != codeNoRollback {
		t.Fatalf("premature rollback: got %d code=%v, want 409 no_rollback", resp.StatusCode, m["code"])
	}

	// Generation A: the full six routers plus a seventh.
	files := dirFiles(t, dir)
	files["r7.cfg"] = "hostname r7\ninterface Ethernet0\n ip address 10.1.9.1 255.255.255.252\n"
	code, pm := postBody(t, ts.URL+"/v1/nets/push/configs", archiveOf(t, files))
	if code != http.StatusOK {
		t.Fatalf("push A: got %d (%v)", code, pm)
	}
	// Generation B: drop r7 and r6 (admitted: 2 of 7 is under 50%).
	delete(files, "r7.cfg")
	delete(files, "r6.cfg")
	code, pm = postBody(t, ts.URL+"/v1/nets/push/configs", archiveOf(t, files))
	if code != http.StatusOK {
		t.Fatalf("push B: got %d (%v)", code, pm)
	}
	code, sum, _ := get(t, ts.URL+"/v1/nets/push/summary")
	if code != http.StatusOK || sum["routers"].(float64) != 5 {
		t.Fatalf("after push B: got routers=%v, want 5", sum["routers"])
	}

	// Roll back: the previous generation (A) becomes active, but the
	// serving design does not change until the next reload.
	resp, err = http.Post(ts.URL+"/v1/nets/push/configs/rollback", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	m = map[string]any{}
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || m["ok"] != true {
		t.Fatalf("rollback: got %d (%v)", resp.StatusCode, m)
	}
	restored, _ := m["restored"].(string)
	if !strings.HasPrefix(restored, "gen-") {
		t.Errorf("rollback restored = %q, want a generation name", restored)
	}
	code, sum, _ = get(t, ts.URL+"/v1/nets/push/summary")
	if code != http.StatusOK || sum["routers"].(float64) != 5 {
		t.Errorf("rollback itself changed the serving design: routers=%v", sum["routers"])
	}

	// The next reload analyzes the restored generation: 7 routers again.
	resp, err = http.Post(ts.URL+"/v1/nets/push/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	m = map[string]any{}
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || m["result"] != "swapped" {
		t.Fatalf("reload after rollback: got %d result=%v (%v)", resp.StatusCode, m["result"], m)
	}
	code, sum, _ = get(t, ts.URL+"/v1/nets/push/summary")
	if code != http.StatusOK || sum["routers"].(float64) != 7 {
		t.Errorf("after rollback+reload: got routers=%v, want 7", sum["routers"])
	}
	if got := s.reg.Counter(ingest.MetricRollbacks, lnet("push")).Value(); got != 1 {
		t.Errorf("ingest_rollbacks_total = %v, want 1", got)
	}
	evs, _, _ := s.Net("push").Events().Since(0, 0)
	found := false
	for _, ev := range evs {
		if ev.Type == EvtConfigRolledBack {
			found = true
		}
	}
	if !found {
		t.Errorf("no config.rolledback event")
	}
}

// TestReloadResponseSchema audits the reload result discriminator
// across all four outcomes: swapped, unchanged, rejected, failed — and
// the reloads_total result labels that mirror them.
func TestReloadResponseSchema(t *testing.T) {
	s, dir := newIngestServer(t, func(c *Config) {
		c.SnapshotDir = t.TempDir()
		c.ReloadRetries = 0
		c.Faults = faultinject.New(1, faultinject.Rule{
			// Visits 1-3 are the initial load, the swapped reload, and the
			// unchanged reload; visit 4 is the failing one.
			Site: SiteAnalyze, Kind: faultinject.KindError, After: 3, Count: 1,
		})
	})
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(url string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(url, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}

	// swapped: the configs changed since the initial load.
	if err := os.WriteFile(filepath.Join(dir, "r7.cfg"), []byte("hostname r7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, m := post(ts.URL + "/v1/nets/push/reload")
	if code != http.StatusOK || m["result"] != "swapped" {
		t.Errorf("swapped reload: got %d result=%v (%v)", code, m["result"], m)
	}
	for _, k := range []string{"ok", "net", "seq", "loaded_at"} {
		if _, present := m[k]; !present {
			t.Errorf("swapped reload response missing %q: %v", k, m)
		}
	}
	if _, present := m["unchanged"]; present {
		t.Errorf("reload response carries an unchanged field beside result: %v", m)
	}

	// unchanged: same signature set, warm generation kept.
	code, m = post(ts.URL + "/v1/nets/push/reload")
	if code != http.StatusOK || m["result"] != "unchanged" {
		t.Errorf("unchanged reload: got %d result=%v (%v)", code, m["result"], m)
	}

	// failed: the injected analyzer error, no retries.
	code, m = post(ts.URL + "/v1/nets/push/reload")
	if code != http.StatusInternalServerError || m["result"] != "failed" || m["code"] != codeReloadFailed {
		t.Errorf("failed reload: got %d result=%v code=%v (%v)", code, m["result"], m["code"], m)
	}
	if m["degraded"] != true || m["note"] != "still serving the last-good design" {
		t.Errorf("failed reload: missing degraded/note in %v", m)
	}

	// rejected: gut the directory below the loss guardrail.
	for _, name := range []string{"r2.cfg", "r3.cfg", "r4.cfg", "r5.cfg", "r6.cfg", "r7.cfg"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	code, m = post(ts.URL + "/v1/nets/push/reload")
	if code != http.StatusUnprocessableEntity || m["result"] != "rejected" || m["code"] != codeDesignRejected {
		t.Errorf("rejected reload: got %d result=%v code=%v (%v)", code, m["result"], m["code"], m)
	}
	if m["quarantine"] != "/v1/nets/push/quarantine" {
		t.Errorf("rejected reload: quarantine pointer = %v", m["quarantine"])
	}

	// A malformed force parameter is a client error, not a reload.
	code, m = post(ts.URL + "/v1/nets/push/reload?force=yes-please")
	if code != http.StatusBadRequest || m["code"] != codeBadRequest {
		t.Errorf("bad force: got %d code=%v, want 400 bad_request", code, m["code"])
	}

	// Every result label was counted exactly where expected.
	for result, want := range map[string]int64{"ok": 2, "unchanged": 1, "error": 1, "rejected": 1} {
		if got := s.reg.Counter(MetricReloads, lnet("push"), telemetry.L("result", result)).Value(); got != want {
			t.Errorf("reloads_total{result=%s} = %v, want %v", result, got, want)
		}
	}
}

// TestFailedPushResponse pins the body of a push whose reload fails —
// here its promotion into the generation chain: the reload_failed
// envelope a failed POST /reload answers, "degraded" included, while
// the last-good generation keeps serving.
func TestFailedPushResponse(t *testing.T) {
	s, dir := newIngestServer(t, func(c *Config) {
		c.Faults = faultinject.New(1, faultinject.Rule{Site: ingest.SitePromote, Kind: faultinject.KindError, Count: 1})
	})
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	files := dirFiles(t, dir)
	files["r7.cfg"] = "hostname r7\n"
	code, m := postBody(t, ts.URL+"/v1/nets/push/configs", archiveOf(t, files))
	if code != http.StatusInternalServerError {
		t.Fatalf("failing push: got %d, want 500 (%v)", code, m)
	}
	want := map[string]any{
		"code":        codeReloadFailed,
		"net":         "push",
		"result":      "failed",
		"degraded":    true,
		"serving_seq": float64(1),
		"note":        "still serving the last-good design",
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("failed push: %s = %v, want %v", k, m[k], v)
		}
	}
	for _, k := range []string{"error", "trace_id"} {
		if v, _ := m[k].(string); v == "" {
			t.Errorf("failed push: missing %s in %v", k, m)
		}
	}
	if len(m) != len(want)+2 {
		t.Errorf("failed push body's keys differ from the reload_failed envelope's: %v", m)
	}
	if got := s.reg.Counter(ingest.MetricPushes, lnet("push"), telemetry.L("result", "failed")).Value(); got != 1 {
		t.Errorf("pushes_total{result=failed} = %d, want 1", got)
	}
	if !s.Net("push").Degraded() {
		t.Error("network not degraded after a failed push")
	}
}

// waitForEvent polls a buffer until an event of type et shows up (or
// the deadline passes).
func waitForEvent(t *testing.T, buf *events.Buffer, et events.Type, within time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		evs, _, _ := buf.Since(0, 0)
		for _, ev := range evs {
			if ev.Type == et {
				return true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestWatcherReloadsAndCircuitBreaks drives the watcher end to end
// against a live server: a config change flows in autonomously; then a
// repeatedly failing poll trips the circuit breaker (ingest.suspended),
// and the watcher recovers on the next good signature
// (ingest.resumed).
func TestWatcherReloadsAndCircuitBreaks(t *testing.T) {
	var s *Server
	var dir string
	s, dir = newIngestServer(t, func(c *Config) {
		c.WatchInterval = 10 * time.Millisecond
		c.WatchMaxBackoff = 20 * time.Millisecond
		c.ReloadRetries = 0
		// Poll-site visit 1 is the watcher's baseline signature, visit 2
		// its first real poll; visits 3-6 fail — enough consecutive
		// failures to trip the breaker (TripAfter 3) — then the faults
		// exhaust and the watcher recovers.
		c.Faults = faultinject.New(1, faultinject.Rule{
			Site: ingest.SitePoll, Kind: faultinject.KindError, After: 2, Count: 4,
		})
	})
	mustReload(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		s.watchWG.Wait()
	}()
	s.StartWatchers(ctx)
	nw := s.Net("push")

	// Wait for the first clean poll, so the baseline signature was taken
	// before we mutate the directory.
	deadline := time.Now().Add(5 * time.Second)
	for s.reg.Counter(ingest.MetricPolls, lnet("push"), telemetry.L("result", "unchanged")).Value() < 1 &&
		time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := os.WriteFile(filepath.Join(dir, "r7.cfg"), []byte("hostname r7\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The injected poll failures trip the breaker...
	if !waitForEvent(t, nw.Events(), EvtIngestSuspended, 5*time.Second) {
		t.Fatalf("watcher never suspended under injected poll failures")
	}
	// ...and once the faults exhaust, the next good signature resumes it
	// and the pending change flows in.
	if !waitForEvent(t, nw.Events(), EvtIngestResumed, 5*time.Second) {
		t.Fatalf("watcher never resumed after the faults exhausted")
	}
	for nw.State().Seq < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if nw.State().Seq < 2 {
		t.Fatalf("watcher never reloaded the changed directory (seq=%d)", nw.State().Seq)
	}
	if got := s.reg.Gauge(ingest.MetricWatchSuspended, lnet("push")).Value(); got != 0 {
		t.Errorf("ingest_watch_suspended = %v after resume, want 0", got)
	}
	if got := s.reg.Counter(ingest.MetricPolls, lnet("push"), telemetry.L("result", "error")).Value(); got < 3 {
		t.Errorf("ingest_polls_total{result=error} = %v, want >= 3", got)
	}
	// The network itself never degraded across the outage: the poll
	// failures were signature reads, not reloads, and the last-good
	// design kept serving throughout.
	if nw.State() == nil || nw.Degraded() {
		t.Fatalf("network degraded across the watcher outage")
	}
}

// TestIngestConvergenceStress is the tier-2 race stress: a watcher, a
// pusher (mixing admitted and catastrophic archives), a manual reloader
// and a rollbacker all hammer one network concurrently. The invariants:
// the server converges to the final content, every successful swap emits
// exactly one generation.swap event, the swaps' seqs form one chain
// without a gap, no staging directory is left behind, reloads analyze
// the store's current directory, and the quarantine record is never
// observed half-written.
func TestIngestConvergenceStress(t *testing.T) {
	s, dir := newIngestServer(t, func(c *Config) {
		c.WatchInterval = 5 * time.Millisecond
		c.ReloadRetries = 0
		c.EventsBuffer = 8192
	})
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		s.watchWG.Wait()
	}()
	s.StartWatchers(ctx)
	nw := s.Net("push")

	base := dirFiles(t, dir)
	good := make(map[string]string, len(base)+1)
	for k, v := range base {
		good[k] = v
	}
	good["r7.cfg"] = "hostname r7\ninterface Ethernet0\n ip address 10.1.9.1 255.255.255.252\n"
	goodArchive := archiveOf(t, good)
	badArchive := archiveOf(t, map[string]string{"r1.cfg": base["r1.cfg"]})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer: keep mutating the source directory.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			body := fmt.Sprintf("hostname r8\ninterface Ethernet0\n ip address 10.1.10.%d 255.255.255.252\n", i%250+1)
			os.WriteFile(filepath.Join(dir, "r8.cfg"), []byte(body), 0o644)
			i++
			time.Sleep(3 * time.Millisecond)
		}
	}()
	// Pusher: alternate admitted and catastrophic archives.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body := goodArchive
			if i%2 == 1 {
				body = badArchive
			}
			resp, err := http.Post(ts.URL+"/v1/nets/push/configs", "application/gzip", bytes.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Manual reloader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(ts.URL+"/v1/nets/push/reload", "", nil)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(4 * time.Millisecond)
		}
	}()
	// Rollbacker: flip the generation store back and forth, racing the
	// pushes' promotions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(ts.URL+"/v1/nets/push/configs/rollback", "", nil)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	// Quarantine reader: a record, when present, is always complete.
	var torn atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if rec := nw.Quarantine(); rec != nil {
				if len(rec.Reasons) == 0 || rec.Note == "" || rec.At == "" || rec.Trigger == "" {
					torn.Add(1)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	cancel()
	s.watchWG.Wait()

	if torn.Load() > 0 {
		t.Errorf("quarantine record observed half-written %d times", torn.Load())
	}
	// Converge: one final forced reload of whatever is active now must
	// succeed and leave the network clean.
	if err := nw.reload(context.Background(), reloadReq{force: true, trigger: "manual"}).err; err != nil {
		t.Fatalf("convergence reload: %v", err)
	}
	if nw.Degraded() {
		t.Errorf("network degraded after the storm settled")
	}
	// Every successful swap emitted exactly one generation.swap event.
	evs, _, truncated := nw.Events().Since(0, 0)
	if truncated {
		t.Fatalf("event ring truncated; raise EventsBuffer in the test")
	}
	swaps := 0
	for _, ev := range evs {
		if ev.Type == EvtSwap {
			swaps++
		}
	}
	okReloads := s.reg.Counter(MetricReloads, lnet("push"), telemetry.L("result", "ok")).Value()
	if int64(swaps) != okReloads {
		t.Errorf("generation.swap events (%d) != successful reloads (%v): swap events lost or duplicated", swaps, okReloads)
	}
	checkSwapChain(t, evs)
	checkNoStaging(t, filepath.Join(s.cfg.IngestDir, "push"))
	if store := nw.peekStore(); store == nil || nw.activeDirPath() != store.Current() {
		t.Errorf("reloads analyze %q, not the generation store's current directory", nw.activeDirPath())
	}
}

// checkSwapChain asserts that the generation.swap events among evs
// publish contiguous seqs: each one's prev_seq is the seq before it.
func checkSwapChain(t testing.TB, evs []events.Event) {
	t.Helper()
	var last int64
	for _, ev := range evs {
		if ev.Type != EvtSwap {
			continue
		}
		p := ev.Payload.(swapPayload)
		if p.PrevSeq != last || p.Seq != last+1 {
			t.Errorf("generation.swap seq %d (prev_seq %d) follows seq %d: the published seqs have a gap", p.Seq, p.PrevSeq, last)
		}
		last = p.Seq
	}
}

// checkNoStaging asserts that no staging directory is left in a
// network's generation store root.
func checkNoStaging(t testing.TB, root string) {
	t.Helper()
	ents, err := os.ReadDir(root)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "staging-") {
			t.Errorf("staging directory %s left in the generation store", e.Name())
		}
	}
}
