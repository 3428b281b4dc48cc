package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"routinglens/internal/faultinject"
	"routinglens/internal/snapshot"
	"routinglens/internal/telemetry"
)

// writeNamedConfigDir is writeConfigDir with a fixed directory base
// name. AnalyzeDir names the network after filepath.Base(dir), so a
// test comparing an AnalyzeDir baseline with AnalyzeDirResult under a
// network name pins the directory to that name.
func writeNamedConfigDir(t *testing.T, name string, configs map[string]string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for fn, text := range configs {
		if err := os.WriteFile(filepath.Join(dir, fn+".cfg"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func netCounter(reg *telemetry.Registry, name, net string) int64 {
	return reg.Counter(name, telemetry.L("net", net)).Value()
}

func snapPath(snapDir, net string) string {
	return filepath.Join(snapDir, net+snapshot.FileExt)
}

// TestSnapshotColdStartRoundTrip is the tentpole contract: analyze once
// with a snapshot directory, then a brand-new analyzer (fresh process,
// in effect) restores the identical design and diagnostics from the
// snapshot instead of re-analyzing — including the lenient skipped-file
// markers for an unparseable config.
func TestSnapshotColdStartRoundTrip(t *testing.T) {
	configs := mixedConfigs(t)
	configs["m-broken"] = brokenJunos
	dir := writeNamedConfigDir(t, "netsnap", configs)
	snapDir := t.TempDir()

	baseline, baseDiags, err := NewAnalyzer().AnalyzeDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	ctx := telemetry.WithRegistry(context.Background(), reg)
	writer := NewAnalyzer(WithSnapshotDir(snapDir))
	res, err := writer.AnalyzeDirResult(ctx, "netsnap", dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromSnapshot {
		t.Errorf("first analysis claims FromSnapshot")
	}
	if res.InputKey == "" {
		t.Errorf("InputKey empty")
	}
	if got := netCounter(reg, MetricSnapshotWrites, "netsnap"); got != 1 {
		t.Errorf("snapshot writes = %d, want 1", got)
	}
	if got := netCounter(reg, MetricSnapshotMisses, "netsnap"); got != 1 {
		t.Errorf("snapshot misses = %d, want 1 (no snapshot yet)", got)
	}
	if _, err := os.Stat(snapPath(snapDir, "netsnap")); err != nil {
		t.Fatalf("snapshot file not written: %v", err)
	}

	reg = telemetry.NewRegistry()
	ctx = telemetry.WithRegistry(context.Background(), reg)
	reader := NewAnalyzer(WithSnapshotDir(snapDir))
	res2, err := reader.AnalyzeDirResult(ctx, "netsnap", dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.FromSnapshot {
		t.Fatalf("fresh analyzer did not restore from snapshot")
	}
	if res2.FilesParsed != 0 {
		t.Errorf("a snapshot restore counts %d files parsed, want 0", res2.FilesParsed)
	}
	if res2.InputKey != res.InputKey {
		t.Errorf("input key changed across identical loads")
	}
	if got := netCounter(reg, MetricSnapshotLoads, "netsnap"); got != 1 {
		t.Errorf("snapshot loads = %d, want 1", got)
	}
	if res2.Design.Summary() != baseline.Summary() {
		t.Errorf("restored Summary() differs from un-snapshotted analysis")
	}
	if !reflect.DeepEqual(res2.Diagnostics, baseDiags) {
		t.Errorf("restored diagnostics differ from un-snapshotted analysis:\n%v\nvs\n%v", baseDiags, res2.Diagnostics)
	}
	if !reflect.DeepEqual(res2.Skipped, SkippedFiles(baseDiags)) {
		t.Errorf("restored skipped list differs: %v", res2.Skipped)
	}

	// The restored Result carries the parse table: a one-file edit
	// analyzed given it re-parses exactly two files — the edited one plus
	// the unparseable one, which is re-diagnosed every load because parse
	// failures are never kept — and reads no snapshot.
	if err := os.WriteFile(filepath.Join(dir, "jmix.cfg"), []byte(junosTestConfig+"\n/* touched */\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg = telemetry.NewRegistry()
	ctx = telemetry.WithRegistry(context.Background(), reg)
	res3, err := reader.AnalyzeDirResult(ctx, "netsnap", dir, res2)
	if err != nil {
		t.Fatal(err)
	}
	if res3.FromSnapshot {
		t.Errorf("edited load claims FromSnapshot")
	}
	if got := gauge(reg, MetricFilesReparsed); got != 2 {
		t.Errorf("post-restore one-file edit reparsed %v files, want 2 (restored Result has no parse table?)", got)
	}
	if got := netCounter(reg, MetricSnapshotMisses, "netsnap") + netCounter(reg, MetricSnapshotInvalid, "netsnap"); got != 0 {
		t.Errorf("a reload given the previous Result read the snapshot (%d misses or refusals)", got)
	}
	if got := netCounter(reg, MetricSnapshotWrites, "netsnap"); got != 1 {
		t.Errorf("snapshot writes = %d, want 1 (the edit refreshes it)", got)
	}
}

// TestSnapshotUnchangedReloadRestores: an unchanged directory analyzed
// with no previous Result — a cold start — restores from the snapshot
// the first load wrote, under the same input key, and counts as a
// snapshot load. Given the previous Result it is that Result, and no
// snapshot is read or written.
func TestSnapshotUnchangedReloadRestores(t *testing.T) {
	dir := writeNamedConfigDir(t, "netunchanged", mixedConfigs(t))
	an := NewAnalyzer(WithSnapshotDir(t.TempDir()))

	res1, err := an.AnalyzeDirResult(context.Background(), "netunchanged", dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithRegistry(context.Background(), reg)
	res2, err := an.AnalyzeDirResult(ctx, "netunchanged", dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.FromSnapshot {
		t.Fatalf("cold start over an unchanged directory was not restored from the snapshot")
	}
	if res2.InputKey != res1.InputKey {
		t.Errorf("input key changed without an edit")
	}
	if got := netCounter(reg, MetricSnapshotLoads, "netunchanged"); got != 1 {
		t.Errorf("snapshot loads = %d, want 1", got)
	}

	reg = telemetry.NewRegistry()
	ctx = telemetry.WithRegistry(context.Background(), reg)
	res3, err := an.AnalyzeDirResult(ctx, "netunchanged", dir, res2)
	if err != nil {
		t.Fatal(err)
	}
	if res3 != res2 {
		t.Errorf("unchanged reload given the previous Result did not return it")
	}
	for _, m := range []string{MetricSnapshotLoads, MetricSnapshotMisses, MetricSnapshotInvalid, MetricSnapshotWrites} {
		if got := netCounter(reg, m, "netunchanged"); got != 0 {
			t.Errorf("%s = %d on an unchanged reload, want 0", m, got)
		}
	}
}

// TestSnapshotInSlackEditInvalidates: a file edited immediately after a
// load, keeping its size and (on a coarse-timestamp filesystem) possibly
// its mtime, must change the snapshot key. Every load re-reads and
// re-hashes every file and the hashes feed the key, so a warm snapshot
// can never mask the edit.
func TestSnapshotInSlackEditInvalidates(t *testing.T) {
	configs := mixedConfigs(t)
	dir := writeNamedConfigDir(t, "netslack", configs)
	snapDir := t.TempDir()
	an := NewAnalyzer(WithSnapshotDir(snapDir))

	res1, err := an.AnalyzeDirResult(context.Background(), "netslack", dir, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Edit immediately, keeping the size identical: only the content
	// differs.
	cfgPath := filepath.Join(dir, "jmix.cfg")
	orig, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(orig, []byte("host-name jmix;"), []byte("host-name jmax;"), 1)
	if len(edited) != len(orig) {
		t.Fatalf("fixture: edit changed the size (%d -> %d)", len(orig), len(edited))
	}
	if err := os.WriteFile(cfgPath, edited, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	ctx := telemetry.WithRegistry(context.Background(), reg)
	res2, err := an.AnalyzeDirResult(ctx, "netslack", dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.FromSnapshot {
		t.Fatalf("in-slack edit was masked by a snapshot restore")
	}
	if res2.InputKey == res1.InputKey {
		t.Fatalf("in-slack edit did not change the input key")
	}
	if got := netCounter(reg, MetricSnapshotMisses, "netslack"); got != 1 {
		t.Errorf("snapshot misses = %d, want 1 (stale key)", got)
	}
	// Given the previous Result, the edit is not masked either.
	res3, err := an.AnalyzeDirResult(ctx, "netslack", dir, res1)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{res2, res3} {
		renamed := false
		for _, dev := range res.Design.Network.Devices {
			if dev.Hostname == "jmax" {
				renamed = true
			}
		}
		if !renamed {
			t.Errorf("edited hostname jmax missing from the re-analyzed design")
		}
	}
}

// TestSnapshotCorruptionFallsBack covers every refusal class end to
// end: truncated, bit-flipped, version-skewed (format and analysis
// version), and outright garbage snapshot files must each fall back to
// full re-analysis with byte-identical output and exactly one
// snapshot_invalid_total increment — and the full analysis then
// rewrites a valid snapshot.
func TestSnapshotCorruptionFallsBack(t *testing.T) {
	configs := mixedConfigs(t)
	configs["m-broken"] = brokenJunos
	dir := writeNamedConfigDir(t, "netcorrupt", configs)
	baseline, baseDiags, err := NewAnalyzer().AnalyzeDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name   string
		mutate func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flip", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x20
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not a snapshot at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"analysis-version-skew", func(t *testing.T, path string) {
			s, err := snapshot.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			s.AnalysisVersion = "0-obsolete"
			if err := snapshot.Write(path, s); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			snapDir := t.TempDir()
			if _, err := NewAnalyzer(WithSnapshotDir(snapDir)).AnalyzeDirResult(context.Background(), "netcorrupt", dir, nil); err != nil {
				t.Fatal(err)
			}
			path := snapPath(snapDir, "netcorrupt")
			tc.mutate(t, path)

			reg := telemetry.NewRegistry()
			ctx := telemetry.WithRegistry(context.Background(), reg)
			res, err := NewAnalyzer(WithSnapshotDir(snapDir)).AnalyzeDirResult(ctx, "netcorrupt", dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.FromSnapshot {
				t.Fatalf("corrupted snapshot was restored")
			}
			if got := netCounter(reg, MetricSnapshotInvalid, "netcorrupt"); got != 1 {
				t.Errorf("snapshot invalid = %d, want 1", got)
			}
			if res.Design.Summary() != baseline.Summary() {
				t.Errorf("fallback Summary() differs from un-snapshotted analysis")
			}
			if !reflect.DeepEqual(res.Diagnostics, baseDiags) {
				t.Errorf("fallback diagnostics differ from un-snapshotted analysis")
			}
			if got := netCounter(reg, MetricSnapshotWrites, "netcorrupt"); got != 1 {
				t.Errorf("snapshot writes = %d, want 1 (refused snapshot should be refreshed)", got)
			}

			// The rewrite healed the snapshot: the next cold analyzer
			// restores from it.
			reg = telemetry.NewRegistry()
			ctx = telemetry.WithRegistry(context.Background(), reg)
			res2, err := NewAnalyzer(WithSnapshotDir(snapDir)).AnalyzeDirResult(ctx, "netcorrupt", dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res2.FromSnapshot || netCounter(reg, MetricSnapshotLoads, "netcorrupt") != 1 {
				t.Errorf("refreshed snapshot did not restore on the next load")
			}
		})
	}
}

// TestSnapshotDeterministicAcrossParallelism: the snapshot bytes are a
// pure function of the analyzed content — two corpora with identical
// files and network name, analyzed at different -j, produce
// byte-identical snapshot files.
func TestSnapshotDeterministicAcrossParallelism(t *testing.T) {
	configs := mixedConfigs(t)
	configs["m-broken"] = brokenJunos

	var first []byte
	for i, j := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		dir := writeNamedConfigDir(t, "netdet", configs)
		snapDir := t.TempDir()
		an := NewAnalyzer(WithParallelism(j), WithSnapshotDir(snapDir))
		if _, err := an.AnalyzeDirResult(context.Background(), "netdet", dir, nil); err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		data, err := os.ReadFile(snapPath(snapDir, "netdet"))
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if i == 0 {
			first = data
			continue
		}
		if !bytes.Equal(data, first) {
			t.Errorf("snapshot bytes differ between j=1 and j=%d", j)
		}
	}
}

// TestSnapshotFaultsDegradeGracefully arms the snapshot.load and
// snapshot.store fault sites: a load fault (error or panic) falls back
// to full analysis with identical output; a store fault skips the
// write. Same acceptance rule as the parse-cache faults.
func TestSnapshotFaultsDegradeGracefully(t *testing.T) {
	configs := mixedConfigs(t)
	dir := writeNamedConfigDir(t, "netfault", configs)
	baseline, baseDiags, err := NewAnalyzer().AnalyzeDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("store-error", func(t *testing.T) {
		snapDir := t.TempDir()
		an := NewAnalyzer(
			WithSnapshotDir(snapDir),
			WithFaults(faultinject.New(1, faultinject.Rule{Site: SiteSnapshotStore, Kind: faultinject.KindError})),
		)
		res, err := an.AnalyzeDirResult(context.Background(), "netfault", dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Design.Summary() != baseline.Summary() {
			t.Errorf("Summary() differs under store fault")
		}
		if _, err := os.Stat(snapPath(snapDir, "netfault")); !os.IsNotExist(err) {
			t.Errorf("snapshot written despite store fault (stat err %v)", err)
		}
	})

	for _, kind := range []faultinject.Kind{faultinject.KindError, faultinject.KindPanic} {
		t.Run("load-"+kind.String(), func(t *testing.T) {
			snapDir := t.TempDir()
			if _, err := NewAnalyzer(WithSnapshotDir(snapDir)).AnalyzeDirResult(context.Background(), "netfault", dir, nil); err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			ctx := telemetry.WithRegistry(context.Background(), reg)
			an := NewAnalyzer(
				WithSnapshotDir(snapDir),
				WithFaults(faultinject.New(1, faultinject.Rule{Site: SiteSnapshotLoad, Kind: kind})),
			)
			res, err := an.AnalyzeDirResult(ctx, "netfault", dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.FromSnapshot {
				t.Errorf("restore claimed despite load fault")
			}
			if got := netCounter(reg, MetricSnapshotInvalid, "netfault"); got != 1 {
				t.Errorf("snapshot invalid = %d, want 1", got)
			}
			if res.Design.Summary() != baseline.Summary() {
				t.Errorf("Summary() differs under load fault")
			}
			if !reflect.DeepEqual(res.Diagnostics, baseDiags) {
				t.Errorf("diagnostics differ under load fault")
			}
		})
	}
}
