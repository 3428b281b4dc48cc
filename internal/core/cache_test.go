package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"routinglens/internal/faultinject"
	"routinglens/internal/parsecache"
	"routinglens/internal/telemetry"
)

// writeConfigDir materializes an in-memory config set as one file per
// device so AnalyzeDir tests run against real on-disk state.
func writeConfigDir(t *testing.T, configs map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, text := range configs {
		if err := os.WriteFile(filepath.Join(dir, name+".cfg"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// gauge reads a gauge's current value from a registry.
func gauge(reg *telemetry.Registry, name string) float64 {
	return reg.Gauge(name).Value()
}

// TestCacheDeterminism is the cache's core guarantee: with the parse
// cache off, cold, or warm, Summary() and the diagnostics slice are
// byte-identical at parallelism 1, 4, and GOMAXPROCS — including when
// the lenient path skips a malformed file.
func TestCacheDeterminism(t *testing.T) {
	configs := mixedConfigs(t)
	configs["m-broken"] = brokenJunos

	for _, j := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		an := NewAnalyzer(WithParallelism(j))
		baseline, baseDiags, err := an.AnalyzeConfigs(context.Background(), "mixed", configs)
		if err != nil {
			t.Fatalf("uncached j=%d: %v", j, err)
		}

		cached := NewAnalyzer(WithParallelism(j), WithCache(parsecache.New(0, 0)))
		for _, mode := range []string{"cold", "warm"} {
			d, diags, err := cached.AnalyzeConfigs(context.Background(), "mixed", configs)
			if err != nil {
				t.Fatalf("%s j=%d: %v", mode, j, err)
			}
			if d.Summary() != baseline.Summary() {
				t.Errorf("%s j=%d: Summary() differs from uncached run:\n--- uncached\n%s\n--- %s\n%s",
					mode, j, baseline.Summary(), mode, d.Summary())
			}
			if !reflect.DeepEqual(diags, baseDiags) {
				t.Errorf("%s j=%d: diagnostics differ from uncached run:\n%v\nvs\n%v",
					mode, j, baseDiags, diags)
			}
		}
	}
}

// loadAndCompare runs one AnalyzeDir under a fresh registry, checks the
// number of files parsed fresh, and compares the result with an
// uncached analyzer's. It returns the registry for further checks.
func loadAndCompare(t *testing.T, an *Analyzer, dir, step string, wantReparsed int) *telemetry.Registry {
	t.Helper()
	reg := telemetry.NewRegistry()
	d, diags, err := an.AnalyzeDir(telemetry.WithRegistry(context.Background(), reg), dir)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got := gauge(reg, MetricFilesReparsed); got != float64(wantReparsed) {
		t.Errorf("%s: reparsed %v files, want %d", step, got, wantReparsed)
	}
	fresh, freshDiags, err := NewAnalyzer().AnalyzeDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Summary() != fresh.Summary() {
		t.Errorf("%s: Summary() differs from from-scratch analysis:\n--- incremental\n%s\n--- fresh\n%s",
			step, d.Summary(), fresh.Summary())
	}
	if !reflect.DeepEqual(diags, freshDiags) {
		t.Errorf("%s: diagnostics differ from from-scratch analysis:\n%v\nvs\n%v", step, diags, freshDiags)
	}
	return reg
}

// TestCacheIncrementalAnalyzeDir is the incremental-reload contract: a
// one-file edit between two AnalyzeDir calls re-parses exactly one file
// (routinglens_reload_files_reparsed = 1), replays the rest from the
// cache, and produces the same design a from-scratch analyzer sees.
func TestCacheIncrementalAnalyzeDir(t *testing.T) {
	configs := mixedConfigs(t)
	dir := writeConfigDir(t, configs)
	an := NewAnalyzer(WithCache(parsecache.New(0, 0)))

	loadAndCompare(t, an, dir, "cold load", len(configs))

	if err := os.WriteFile(filepath.Join(dir, "jmix.cfg"), []byte(junosTestConfig+"\n/* touched */\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := loadAndCompare(t, an, dir, "one-file edit", 1)
	if hits := reg.Counter(MetricCacheHits).Value(); hits != int64(len(configs)-1) {
		t.Errorf("one-file edit hit cache %d times, want %d", hits, len(configs)-1)
	}
}

// TestCacheStatFastPath checks the three reloads a stat layer in front
// of the content hash would serve, now that every AnalyzeDir reads and
// hashes every file and the hash alone decides what is parsed: an
// unchanged reload re-parses nothing, an edit re-parses only the edited
// file, and a purged cache re-parses everything — slower, never wrong.
// Each reload produces the design a from-scratch analyzer sees.
func TestCacheStatFastPath(t *testing.T) {
	configs := mixedConfigs(t)
	dir := writeConfigDir(t, configs)
	cache := parsecache.New(0, 0)
	an := NewAnalyzer(WithCache(cache))

	loadAndCompare(t, an, dir, "cold load", len(configs))
	loadAndCompare(t, an, dir, "unchanged reload", 0)

	if err := os.WriteFile(filepath.Join(dir, "jmix.cfg"), []byte(junosTestConfig+"\n/* edit */\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loadAndCompare(t, an, dir, "post-edit load", 1)

	cache.Purge()
	loadAndCompare(t, an, dir, "post-purge load", len(configs))
}

// TestCacheDialectSeparatesKeys guards the key's dialect component: the
// same bytes parsed under different dialect hints must not replay each
// other's entries, because the cached Device came out of a different
// front end.
func TestCacheDialectSeparatesKeys(t *testing.T) {
	configs := map[string]string{
		"r1": "hostname r1\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.0\n",
		"r2": "hostname r2\ninterface Ethernet0\n ip address 10.0.0.2 255.255.255.0\n",
	}
	cache := parsecache.New(0, 0)

	ios := NewAnalyzer(WithCache(cache), WithDialectHint("ios"))
	if _, _, err := ios.AnalyzeConfigs(context.Background(), "net", configs); err != nil {
		t.Fatal(err)
	}

	junos := NewAnalyzer(WithCache(cache), WithDialectHint("junos"))
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithRegistry(context.Background(), reg)
	if _, _, err := junos.AnalyzeConfigs(ctx, "net", configs); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter(MetricCacheHits).Value(); hits != 0 {
		t.Errorf("junos run replayed %d ios cache entries, want 0", hits)
	}
	if misses := reg.Counter(MetricCacheMisses).Value(); misses != int64(len(configs)) {
		t.Errorf("junos run missed %d times, want %d", misses, len(configs))
	}
}

// TestCacheFaultsDegradeGracefully arms the parsecache.load and
// parsecache.store fault sites with errors and panics and checks the
// acceptance rule for every cache fault: analysis output is identical
// to an uncached run — the cache degrades to a no-op, never to wrong
// answers.
func TestCacheFaultsDegradeGracefully(t *testing.T) {
	configs := mixedConfigs(t)
	configs["m-broken"] = brokenJunos
	baseline, baseDiags, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "mixed", configs)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		rule faultinject.Rule
	}{
		{"load-error", faultinject.Rule{Site: SiteCacheLoad, Kind: faultinject.KindError}},
		{"store-error", faultinject.Rule{Site: SiteCacheStore, Kind: faultinject.KindError}},
		{"load-panic", faultinject.Rule{Site: SiteCacheLoad, Kind: faultinject.KindPanic}},
		{"store-panic", faultinject.Rule{Site: SiteCacheStore, Kind: faultinject.KindPanic}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			an := NewAnalyzer(
				WithCache(parsecache.New(0, 0)),
				WithFaults(faultinject.New(1, tc.rule)),
			)
			// Two runs: the first exercises store faults, the second load
			// faults on whatever the first managed to cache.
			for _, pass := range []string{"cold", "warm"} {
				d, diags, err := an.AnalyzeConfigs(context.Background(), "mixed", configs)
				if err != nil {
					t.Fatalf("%s: %v", pass, err)
				}
				if d.Summary() != baseline.Summary() {
					t.Errorf("%s: Summary() differs from uncached baseline under injected faults", pass)
				}
				if !reflect.DeepEqual(diags, baseDiags) {
					t.Errorf("%s: diagnostics differ from uncached baseline under injected faults", pass)
				}
			}
		})
	}
}

// TestCacheEvictionUnderPressure runs a network through a cache with
// room for only two entries: constant eviction must never change the
// analysis, only its cost.
func TestCacheEvictionUnderPressure(t *testing.T) {
	configs := mixedConfigs(t)
	baseline, baseDiags, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "mixed", configs)
	if err != nil {
		t.Fatal(err)
	}
	cache := parsecache.New(2, 0)
	an := NewAnalyzer(WithCache(cache))
	for pass := 0; pass < 3; pass++ {
		d, diags, err := an.AnalyzeConfigs(context.Background(), "mixed", configs)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if d.Summary() != baseline.Summary() || !reflect.DeepEqual(diags, baseDiags) {
			t.Errorf("pass %d: thrashing cache changed the analysis", pass)
		}
	}
	if n := cache.Len(); n > 2 {
		t.Errorf("cache holds %d entries, bound is 2", n)
	}
	if cache.Stats().Evictions == 0 {
		t.Error("expected evictions under a 2-entry bound")
	}
}
