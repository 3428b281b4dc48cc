package ingest

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// tarGz builds an in-memory tar.gz from entries applied in order.
type tarEntry struct {
	name     string
	body     string
	typeflag byte
	link     string
	size     int64 // overrides len(body) when > 0 (for lying headers)
}

func tarGz(t testing.TB, entries []tarEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for _, e := range entries {
		tf := e.typeflag
		if tf == 0 {
			tf = tar.TypeReg
		}
		hdr := &tar.Header{Name: e.name, Mode: 0o644, Typeflag: tf, Linkname: e.link}
		if tf == tar.TypeReg {
			hdr.Size = int64(len(e.body))
			if e.size > 0 {
				hdr.Size = e.size
			}
		}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatalf("tar header %q: %v", e.name, err)
		}
		if tf == tar.TypeReg {
			if _, err := tw.Write([]byte(e.body)); err != nil && e.size == 0 {
				t.Fatalf("tar body %q: %v", e.name, err)
			}
		}
	}
	tw.Close()
	gz.Close()
	return buf.Bytes()
}

func TestExtractTarGzHappyPath(t *testing.T) {
	dst := t.TempDir()
	data := tarGz(t, []tarEntry{
		{name: "./", typeflag: tar.TypeDir},
		{name: "r1.conf", body: "hostname r1\n"},
		{name: "sub/", typeflag: tar.TypeDir},
		{name: "sub/r2.conf", body: "hostname r2\n"},
	})
	res, err := ExtractTarGz(bytes.NewReader(data), dst, Limits{})
	if err != nil {
		t.Fatalf("ExtractTarGz: %v", err)
	}
	if res.Files != 2 || res.Bytes != int64(len("hostname r1\n")+len("hostname r2\n")) {
		t.Errorf("result = %+v, want 2 files", res)
	}
	got, err := os.ReadFile(filepath.Join(dst, "sub", "r2.conf"))
	if err != nil || string(got) != "hostname r2\n" {
		t.Errorf("sub/r2.conf = %q, %v", got, err)
	}
}

func TestExtractTarGzRejectsMaliciousShapes(t *testing.T) {
	cases := []struct {
		name    string
		entries []tarEntry
		wantErr error
	}{
		{"traversal", []tarEntry{{name: "../evil.conf", body: "x"}}, ErrArchive},
		{"nested traversal", []tarEntry{{name: "a/../../evil.conf", body: "x"}}, ErrArchive},
		{"absolute", []tarEntry{{name: "/etc/evil.conf", body: "x"}}, ErrArchive},
		{"symlink", []tarEntry{{name: "link", typeflag: tar.TypeSymlink, link: "/etc/passwd"}}, ErrArchive},
		{"hardlink", []tarEntry{{name: "link", typeflag: tar.TypeLink, link: "target"}}, ErrArchive},
		{"fifo", []tarEntry{{name: "pipe", typeflag: tar.TypeFifo}}, ErrArchive},
		{"empty archive", nil, ErrArchive},
		{"dirs only", []tarEntry{{name: "d/", typeflag: tar.TypeDir}}, ErrArchive},
		{"duplicate entry", []tarEntry{{name: "a.conf", body: "x"}, {name: "a.conf", body: "y"}}, ErrArchive},
		{"huge file", []tarEntry{{name: "big.conf", size: 1 << 40}}, ErrTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parent := t.TempDir()
			canary := filepath.Join(parent, "evil.conf")
			dst := filepath.Join(parent, "staging")
			if err := os.Mkdir(dst, 0o755); err != nil {
				t.Fatal(err)
			}
			_, err := ExtractTarGz(bytes.NewReader(tarGz(t, tc.entries)), dst, Limits{})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if _, serr := os.Lstat(canary); !errors.Is(serr, fs.ErrNotExist) {
				t.Errorf("extraction escaped staging: %s exists", canary)
			}
		})
	}
}

func TestExtractTarGzNotGzip(t *testing.T) {
	_, err := ExtractTarGz(strings.NewReader("plain text"), t.TempDir(), Limits{})
	if !errors.Is(err, ErrArchive) {
		t.Fatalf("err = %v, want ErrArchive", err)
	}
}

func TestExtractTarGzLimits(t *testing.T) {
	lim := Limits{MaxBytes: 10, MaxEntries: 2, MaxFileBytes: 8}
	over := tarGz(t, []tarEntry{{name: "a", body: "12345678"}, {name: "b", body: "345"}})
	if _, err := ExtractTarGz(bytes.NewReader(over), t.TempDir(), lim); !errors.Is(err, ErrTooLarge) {
		t.Errorf("total-bytes limit: err = %v, want ErrTooLarge", err)
	}
	many := tarGz(t, []tarEntry{{name: "a", body: "1"}, {name: "b", body: "1"}, {name: "c", body: "1"}})
	if _, err := ExtractTarGz(bytes.NewReader(many), t.TempDir(), lim); !errors.Is(err, ErrTooLarge) {
		t.Errorf("entry-count limit: err = %v, want ErrTooLarge", err)
	}
	fat := tarGz(t, []tarEntry{{name: "a", body: "123456789"}})
	if _, err := ExtractTarGz(bytes.NewReader(fat), t.TempDir(), lim); !errors.Is(err, ErrTooLarge) {
		t.Errorf("per-file limit: err = %v, want ErrTooLarge", err)
	}
}

// TestDefaultLimitsEntries: the default entry bound admits a push of the
// 10k provider network, whose 9,972 files are the most of any netgen
// network, and refuses one entry past it.
func TestDefaultLimitsEntries(t *testing.T) {
	entries := func(n int) []byte {
		es := make([]tarEntry, n)
		for i := range es {
			es[i] = tarEntry{name: fmt.Sprintf("r%d.cfg", i), body: fmt.Sprintf("hostname r%d\n", i)}
		}
		return tarGz(t, es)
	}
	res, err := ExtractTarGz(bytes.NewReader(entries(9972)), t.TempDir(), Limits{})
	if err != nil || res.Files != 9972 {
		t.Errorf("9,972 entries: extracted %d files, err = %v; want all of them", res.Files, err)
	}
	if _, err := ExtractTarGz(bytes.NewReader(entries(DefaultLimits.MaxEntries+1)), t.TempDir(), Limits{}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("%d entries: err = %v, want ErrTooLarge", DefaultLimits.MaxEntries+1, err)
	}
}

func TestDirSignatureChangesOnEdit(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("r1.conf", "hostname r1\n")
	s1, err := DirSignature(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1again, _ := DirSignature(dir)
	if s1 != s1again {
		t.Error("signature not stable across reads")
	}
	// Content edits change size or mtime; both are in the signature.
	write("r1.conf", "hostname r1-renamed\n")
	s2, _ := DirSignature(dir)
	if s2 == s1 {
		t.Error("signature unchanged after edit")
	}
	write("r2.conf", "hostname r2\n")
	s3, _ := DirSignature(dir)
	if s3 == s2 {
		t.Error("signature unchanged after new file")
	}
	os.Remove(filepath.Join(dir, "r2.conf"))
	if s4, _ := DirSignature(dir); s4 == s3 {
		t.Error("signature unchanged after delete")
	}
}

func TestDirSignatureMissingDir(t *testing.T) {
	s, err := DirSignature(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatalf("missing dir should sign as absent, got error %v", err)
	}
	if s == "" {
		t.Error("want a well-defined signature for an absent dir")
	}
}

func TestStorePromoteRollbackPrune(t *testing.T) {
	root := t.TempDir()
	src := t.TempDir() // external generation zero
	st, err := NewStore(root, src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Current() != src || st.Previous() != "" {
		t.Fatalf("fresh store: cur=%q prev=%q", st.Current(), st.Previous())
	}

	mkStaging := func(marker string) string {
		t.Helper()
		staging, err := st.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(staging, "r1.conf"), []byte(marker), 0o644); err != nil {
			t.Fatal(err)
		}
		return staging
	}

	gen1, err := st.Promote(mkStaging("one"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Current() != gen1 || st.Previous() != src {
		t.Fatalf("after promote 1: cur=%q prev=%q", st.Current(), st.Previous())
	}

	gen2, err := st.Promote(mkStaging("two"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Current() != gen2 || st.Previous() != gen1 {
		t.Fatalf("after promote 2: cur=%q prev=%q", st.Current(), st.Previous())
	}
	// The external source is generation zero; pruning must never delete it.
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("source dir deleted by promote: %v", err)
	}

	gen3, err := st.Promote(mkStaging("three"))
	if err != nil {
		t.Fatal(err)
	}
	// gen1 was displaced out of the retained window and pruned.
	if _, err := os.Stat(gen1); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("gen1 should be pruned, stat err = %v", err)
	}
	if _, err := os.Stat(gen2); err != nil {
		t.Errorf("retained gen2 missing: %v", err)
	}

	back, err := st.Rollback()
	if err != nil || back != gen2 {
		t.Fatalf("Rollback = %q, %v; want %q", back, err, gen2)
	}
	if st.Previous() != gen3 {
		t.Errorf("rollback should retain the displaced generation for roll-forward")
	}
	fwd, err := st.Rollback()
	if err != nil || fwd != gen3 {
		t.Fatalf("second Rollback (roll forward) = %q, %v; want %q", fwd, err, gen3)
	}
}

// TestStoreRetainDepth: a retain-N chain keeps exactly the N most
// recently displaced generations on disk, prunes what falls off the
// tail, and never deletes the external generation-zero source.
func TestStoreRetainDepth(t *testing.T) {
	root := t.TempDir()
	src := t.TempDir()
	st, err := NewStoreRetain(root, src, 3)
	if err != nil {
		t.Fatal(err)
	}
	var gens []string
	for i := 0; i < 6; i++ {
		staging, err := st.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(staging, "r1.conf"), []byte{byte('a' + i)}, 0o644); err != nil {
			t.Fatal(err)
		}
		gen, err := st.Promote(staging)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, gen)
	}
	// Displaced so far: src, gen1..gen5. The chain retains the newest
	// three, most recent first.
	want := []string{gens[4], gens[3], gens[2]}
	got := st.Retained()
	if len(got) != len(want) {
		t.Fatalf("Retained() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Retained()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// On disk: the current generation plus the retained three; gen1 and
	// gen2 swept, the external source untouched.
	disk := st.Generations()
	if len(disk) != 4 {
		t.Fatalf("on-disk generations = %v, want 4 entries", disk)
	}
	for _, gen := range gens[:2] {
		if _, err := os.Stat(gen); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s should be pruned, stat err = %v", filepath.Base(gen), err)
		}
	}
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("source dir deleted by retention sweep: %v", err)
	}
	// Rollback walks one step back and roll-forward still works; the
	// deeper retained generations stay put.
	back, err := st.Rollback()
	if err != nil || back != gens[4] {
		t.Fatalf("Rollback = %q, %v; want %q", back, err, gens[4])
	}
	if got := st.Retained(); got[1] != gens[3] || got[2] != gens[2] {
		t.Errorf("rollback disturbed the deeper chain: %v", got)
	}
	fwd, err := st.Rollback()
	if err != nil || fwd != gens[5] {
		t.Fatalf("second Rollback (roll forward) = %q, %v; want %q", fwd, err, gens[5])
	}
}

func TestStoreRollbackWithoutPrevious(t *testing.T) {
	st, err := NewStore(t.TempDir(), "src")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("err = %v, want ErrNoRollback", err)
	}
}

func TestStoreSweepsStaleState(t *testing.T) {
	root := t.TempDir()
	os.Mkdir(filepath.Join(root, "staging-old"), 0o755)
	os.Mkdir(filepath.Join(root, "gen-000007"), 0o755)
	st, err := NewStore(root, "src")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "staging-old")); !errors.Is(err, fs.ErrNotExist) {
		t.Error("stale staging dir survived NewStore")
	}
	if _, err := os.Stat(filepath.Join(root, "gen-000007")); !errors.Is(err, fs.ErrNotExist) {
		t.Error("orphaned generation survived NewStore")
	}
	staging, _ := st.Begin()
	gen, err := st.Promote(staging)
	if err != nil {
		t.Fatal(err)
	}
	// Numbering restarts above the swept generation: no reuse of gen-000007.
	if n, _ := genSeq(filepath.Base(gen)); n <= 7 {
		t.Errorf("new generation %q does not advance past swept seq 7", gen)
	}
}

// TestWatcherReloadsOnChange is the pull half's happy path: signature
// change -> reload; no change -> no reload.
func TestWatcherReloadsOnChange(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "r1.conf"), []byte("v1"), 0o644)

	var mu sync.Mutex
	var polls []string
	reloads := 0
	done := make(chan struct{})
	w := &Watcher{
		Net:       "t",
		Signature: func() (string, error) { return DirSignature(dir) },
		Reload: func(ctx context.Context) error {
			mu.Lock()
			reloads++
			n := reloads
			mu.Unlock()
			if n == 1 {
				close(done)
			}
			return nil
		},
		Interval: 2 * time.Millisecond,
		OnPoll: func(result string) {
			mu.Lock()
			polls = append(polls, result)
			mu.Unlock()
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	// Let a few unchanged polls pass, then edit.
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	if reloads != 0 {
		mu.Unlock()
		t.Fatal("watcher reloaded without a signature change")
	}
	mu.Unlock()
	os.WriteFile(filepath.Join(dir, "r1.conf"), []byte("v2 bigger"), 0o644)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("watcher never reloaded after the edit")
	}
	mu.Lock()
	defer mu.Unlock()
	hasUnchanged := false
	for _, p := range polls {
		if p == PollUnchanged {
			hasUnchanged = true
		}
	}
	if !hasUnchanged {
		t.Error("expected unchanged polls before the edit")
	}
}

// TestWatcherCircuitBreaksAndRecovers: repeated reload failures trip the
// breaker exactly once with a capped backoff; a later success resumes.
func TestWatcherCircuitBreaksAndRecovers(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "r1.conf"), []byte("v1"), 0o644)

	var mu sync.Mutex
	failing := true
	attempts := 0
	suspends, resumes := 0, 0
	var suspendBackoff time.Duration
	recoveredCh := make(chan struct{})
	suspendedCh := make(chan struct{})
	baselineTaken := make(chan struct{})
	var baselineOnce sync.Once
	w := &Watcher{
		Net: "t",
		Signature: func() (string, error) {
			defer baselineOnce.Do(func() { close(baselineTaken) })
			return DirSignature(dir)
		},
		Reload: func(ctx context.Context) error {
			mu.Lock()
			defer mu.Unlock()
			attempts++
			if failing {
				return errors.New("injected analysis failure")
			}
			return nil
		},
		Interval:   time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		TripAfter:  3,
		OnSuspend: func(failures int, backoff time.Duration, err error) {
			mu.Lock()
			suspends++
			suspendBackoff = backoff
			n := suspends
			mu.Unlock()
			if n == 1 {
				close(suspendedCh)
			}
		},
		OnResume: func(failures int) {
			mu.Lock()
			resumes++
			n := resumes
			mu.Unlock()
			if n == 1 {
				close(recoveredCh)
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)
	// Change the source (after the baseline is captured) so polls start
	// attempting reloads.
	<-baselineTaken
	os.WriteFile(filepath.Join(dir, "r1.conf"), []byte("v2 changed"), 0o644)

	select {
	case <-suspendedCh:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never suspended despite constant failures")
	}
	mu.Lock()
	if suspendBackoff > w.MaxBackoff {
		t.Errorf("suspend backoff %v over the cap %v", suspendBackoff, w.MaxBackoff)
	}
	failing = false
	mu.Unlock()
	select {
	case <-recoveredCh:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never resumed after the source went good")
	}
	mu.Lock()
	defer mu.Unlock()
	if suspends != 1 {
		t.Errorf("suspended %d times, want exactly 1 per outage", suspends)
	}
}

// TestWatcherRevertRecovers: while suspended, the source reverting to
// the last-good signature is itself a recovery — nothing is left to
// retry, so the reload is never even called again.
func TestWatcherRevertRecovers(t *testing.T) {
	var mu sync.Mutex
	sig := "good"
	resumed := make(chan struct{})
	var once sync.Once
	w := &Watcher{
		Net: "t",
		Signature: func() (string, error) {
			mu.Lock()
			defer mu.Unlock()
			return sig, nil
		},
		Reload: func(ctx context.Context) error {
			return errors.New("always failing")
		},
		Interval:   time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
		TripAfter:  2,
		OnSuspend: func(int, time.Duration, error) {
			// The operator reverts the source to its baseline content.
			mu.Lock()
			sig = "good"
			mu.Unlock()
		},
		OnResume: func(int) { once.Do(func() { close(resumed) }) },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)
	// Break the source so reload attempts start failing.
	time.Sleep(3 * time.Millisecond)
	mu.Lock()
	sig = "broken"
	mu.Unlock()
	select {
	case <-resumed:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never resumed after the source reverted")
	}
}

// TestWatcherRejectedContentNotRetried: a quarantined signature is
// remembered — identical polls do not re-analyze, and only new content
// (here: the revert) moves the watcher on.
func TestWatcherRejectedContentNotRetried(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "r1.conf"), []byte("good-baseline"), 0o644)

	rejection := errors.New("design rejected by admission control")
	var mu sync.Mutex
	attempts := 0
	w := &Watcher{
		Net:       "t",
		Signature: func() (string, error) { return DirSignature(dir) },
		Reload: func(ctx context.Context) error {
			mu.Lock()
			attempts++
			mu.Unlock()
			return rejection
		},
		IsRejection: func(err error) bool { return errors.Is(err, rejection) },
		Interval:    time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)
	time.Sleep(5 * time.Millisecond)
	// Push "bad" content once; every later poll sees the same signature.
	os.WriteFile(filepath.Join(dir, "r1.conf"), []byte("catastrophic-content"), 0o644)
	time.Sleep(60 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if attempts == 0 {
		t.Fatal("rejected content was never attempted")
	}
	if attempts > 2 {
		t.Errorf("rejected content re-analyzed %d times; identical signatures must not be retried", attempts)
	}
}
