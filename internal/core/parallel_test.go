package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"routinglens/internal/diag"
	"routinglens/internal/netgen"
	"routinglens/internal/telemetry"
)

// junosTestConfig exercises the JunOS front end (with one deliberate
// diagnostic) alongside the generated IOS files in the mixed corpus.
const junosTestConfig = `system { host-name jmix; }
interfaces {
    ge-0/0/0 { unit 0 { family inet { address 10.99.0.1/30; } } }
    ge-0/0/1 { unit 0 { family inet { address notanip; } } }
}
protocols {
    ospf { area 0.0.0.0 { interface ge-0/0/0.0; } }
}
`

// mixedConfigs returns a mid-size mixed-dialect network: a generated
// enterprise plus a JunOS router that emits diagnostics.
func mixedConfigs(t testing.TB) map[string]string {
	t.Helper()
	g := netgen.GenerateCorpus(7).ByName("net7")
	if g == nil {
		t.Fatal("corpus has no net7")
	}
	configs := make(map[string]string, len(g.Configs)+1)
	for k, v := range g.Configs {
		configs[k] = v
	}
	configs["jmix"] = junosTestConfig
	return configs
}

// TestAnalyzerDeterminism is the PR's core guarantee: Summary() and the
// diagnostics slice are byte-identical at parallelism 1, 4, and
// GOMAXPROCS — including when the lenient path skips a malformed file.
func TestAnalyzerDeterminism(t *testing.T) {
	clean := mixedConfigs(t)
	withBroken := mixedConfigs(t)
	withBroken["m-broken"] = brokenJunos

	for name, configs := range map[string]map[string]string{
		"clean":     clean,
		"malformed": withBroken,
	} {
		t.Run(name, func(t *testing.T) {
			levels := []int{1, 4, runtime.GOMAXPROCS(0)}

			type run struct {
				summary string
				diags   []Diagnostic
			}
			var runs []run
			for _, j := range levels {
				an := NewAnalyzer(WithParallelism(j))
				d, diags, err := an.AnalyzeConfigs(context.Background(), "mixed", configs)
				if err != nil {
					t.Fatalf("j=%d: %v", j, err)
				}
				runs = append(runs, run{summary: d.Summary(), diags: diags})
			}
			for i, j := range levels[1:] {
				if runs[0].summary != runs[i+1].summary {
					t.Errorf("Summary() differs between j=%d and j=%d:\n--- j=%d\n%s\n--- j=%d\n%s",
						levels[0], j, levels[0], runs[0].summary, j, runs[i+1].summary)
				}
				if !reflect.DeepEqual(runs[0].diags, runs[i+1].diags) {
					t.Errorf("diagnostics differ between j=%d and j=%d:\n%v\nvs\n%v",
						levels[0], j, runs[0].diags, runs[i+1].diags)
				}
			}
			if len(runs[0].diags) == 0 {
				t.Fatal("mixed corpus produced no diagnostics; determinism check is vacuous")
			}
			if name == "malformed" {
				if got := SkippedFiles(runs[0].diags); !reflect.DeepEqual(got, []string{"m-broken"}) {
					t.Fatalf("SkippedFiles = %v, want [m-broken]", got)
				}
			}
		})
	}
}

// TestDiagnosticsSorted asserts the (file, line, severity, message)
// ordering in every path, including the sequential one.
func TestDiagnosticsSorted(t *testing.T) {
	for _, j := range []int{1, 4} {
		_, diags, err := NewAnalyzer(WithParallelism(j)).
			AnalyzeConfigs(context.Background(), "mixed", mixedConfigs(t))
		if err != nil {
			t.Fatal(err)
		}
		sorted := sort.SliceIsSorted(diags, func(a, b int) bool {
			x, y := diags[a], diags[b]
			if x.File != y.File {
				return x.File < y.File
			}
			if x.Line != y.Line {
				return x.Line < y.Line
			}
			return x.Severity < y.Severity
		})
		if !sorted {
			t.Errorf("j=%d: diagnostics not sorted by (file, line, severity): %v", j, diags)
		}
	}
}

// TestAnalyzerCancellation: a cancelled context stops the worker pool and
// surfaces context.Canceled instead of a half-built design.
func TestAnalyzerCancellation(t *testing.T) {
	configs := mixedConfigs(t)
	for _, j := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		d, _, err := NewAnalyzer(WithParallelism(j)).AnalyzeConfigs(ctx, "mixed", configs)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("j=%d: err = %v, want context.Canceled", j, err)
		}
		if d != nil {
			t.Errorf("j=%d: got a design from a cancelled run", j)
		}
	}
}

// TestAnalyzerDialectHint: a fixed hint must bypass sniffing, and an
// unknown hint must surface as an error.
func TestAnalyzerDialectHint(t *testing.T) {
	ios := map[string]string{
		"r1": "hostname r1\ninterface Serial0\n ip address 10.0.0.1 255.255.255.252\n",
	}
	junos := map[string]string{
		"j1": "system { host-name j1; }\ninterfaces {\n    ge-0/0/0 { unit 0 { family inet { address 10.0.0.1/30; } } }\n}\n",
	}

	d, _, err := NewAnalyzer(WithDialectHint(DialectIOS)).
		AnalyzeConfigs(context.Background(), "ios", ios)
	if err != nil || d.Network.Devices[0].Hostname != "r1" {
		t.Errorf("ios hint: %v %v", d, err)
	}
	d, _, err = NewAnalyzer(WithDialectHint(DialectJunOS)).
		AnalyzeConfigs(context.Background(), "junos", junos)
	if err != nil || d.Network.Devices[0].Hostname != "j1" {
		t.Errorf("junos hint: %v %v", d, err)
	}
	// Auto still handles both in one network.
	both := map[string]string{"r1": ios["r1"], "j1": junos["j1"]}
	d, _, err = NewAnalyzer(WithDialectHint(DialectAuto)).
		AnalyzeConfigs(context.Background(), "both", both)
	if err != nil || len(d.Network.Devices) != 2 {
		t.Errorf("auto hint: %v %v", d, err)
	}
	if _, _, err := NewAnalyzer(WithDialectHint("vendorx")).
		AnalyzeConfigs(context.Background(), "x", ios); err == nil {
		t.Error("unknown dialect hint should error")
	}
	if _, _, err := NewAnalyzer(WithDialectHint("vendorx")).
		AnalyzeDir(context.Background(), t.TempDir()); err == nil {
		t.Error("unknown dialect hint should error via AnalyzeDir too")
	}
}

// brokenJunos fails hard in junosparse: an unterminated block.
const brokenJunos = "system { host-name broken; }\nrouting-options { autonomous-system 1; }\nprotocols { ospf {\n"

// TestAnalyzerParseError: under WithFailFast the parallel path must
// report the same first-in-order parse error a sequential run reports.
func TestAnalyzerParseError(t *testing.T) {
	configs := mixedConfigs(t)
	configs["a-broken"] = brokenJunos
	var msgs []string
	for _, j := range []int{1, 4} {
		_, _, err := NewAnalyzer(WithParallelism(j), WithFailFast(true)).
			AnalyzeConfigs(context.Background(), "mixed", configs)
		if err == nil {
			t.Fatalf("j=%d: expected parse error", j)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("error differs by parallelism: %q vs %q", msgs[0], msgs[1])
	}
	if !strings.Contains(msgs[0], "a-broken") {
		t.Errorf("error %q does not name the offending file", msgs[0])
	}
}

// TestAnalyzerLenientDefault: without WithFailFast, one unparseable file
// must not abort the run. It surfaces as a severity-error diagnostic
// ("file skipped: ..."), bumps routinglens_files_skipped_total, and the
// design is built from the files that did parse.
func TestAnalyzerLenientDefault(t *testing.T) {
	configs := mixedConfigs(t)
	configs["a-broken"] = brokenJunos

	reg := telemetry.NewRegistry()
	ctx := telemetry.WithRegistry(context.Background(), reg)
	d, diags, err := NewAnalyzer(WithParallelism(4)).AnalyzeConfigs(ctx, "mixed", configs)
	if err != nil {
		t.Fatalf("lenient run errored: %v", err)
	}
	if len(d.Network.Devices) != len(configs)-1 {
		t.Errorf("devices = %d, want %d (all but the broken file)",
			len(d.Network.Devices), len(configs)-1)
	}
	skipped := SkippedFiles(diags)
	if !reflect.DeepEqual(skipped, []string{"a-broken"}) {
		t.Errorf("SkippedFiles = %v, want [a-broken]", skipped)
	}
	found := false
	for _, dg := range diags {
		if dg.File == "a-broken" && dg.Severity == diag.SevError && strings.HasPrefix(dg.Msg, "file skipped: ") {
			found = true
			if dg.Dialect != "junos" {
				t.Errorf("skip diagnostic dialect = %q, want junos", dg.Dialect)
			}
		}
	}
	if !found {
		t.Errorf("no file-skipped diagnostic for a-broken in %v", diags)
	}
	if got := reg.Counter(MetricFilesSkipped).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricFilesSkipped, got)
	}

	// All files broken: an empty (but non-nil) design, every file skipped.
	allBad := map[string]string{"x1": brokenJunos, "x2": brokenJunos}
	d, diags, err = NewAnalyzer().AnalyzeConfigs(context.Background(), "bad", allBad)
	if err != nil {
		t.Fatalf("all-broken lenient run errored: %v", err)
	}
	if len(d.Network.Devices) != 0 {
		t.Errorf("devices = %d, want 0", len(d.Network.Devices))
	}
	if got := SkippedFiles(diags); !reflect.DeepEqual(got, []string{"x1", "x2"}) {
		t.Errorf("SkippedFiles = %v, want [x1 x2]", got)
	}
}

// TestAnalyzerParallelTelemetry: under j>1 the parse stage reports one
// parse-worker span per worker, one parse-file span per file, and the
// parallelism gauge.
func TestAnalyzerParallelTelemetry(t *testing.T) {
	configs := mixedConfigs(t)
	col := telemetry.NewCollector()
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithRegistry(telemetry.WithCollector(context.Background(), col), reg)

	const j = 3
	if _, _, err := NewAnalyzer(WithParallelism(j)).AnalyzeConfigs(ctx, "mixed", configs); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, r := range col.Records() {
		counts[r.Name]++
	}
	if counts["parse-worker"] != j {
		t.Errorf("parse-worker spans = %d, want %d", counts["parse-worker"], j)
	}
	if counts["parse-file"] != len(configs) {
		t.Errorf("parse-file spans = %d, want %d", counts["parse-file"], len(configs))
	}
	for _, stage := range []string{"topology", "procgraph", "instance", "addrspace", "filters", "classify"} {
		if counts[stage] != 1 {
			t.Errorf("stage %q spans = %d, want 1", stage, counts[stage])
		}
	}
	if got := reg.Gauge(MetricParallelism).Value(); got != j {
		t.Errorf("parallelism gauge = %v, want %d", got, j)
	}
}

// TestAnalyzeStageParallelRace drives the parallel stage fan-out of
// Analyze repeatedly; under -race this is the worker-pool race test.
func TestAnalyzeStageParallelRace(t *testing.T) {
	configs := mixedConfigs(t)
	an := NewAnalyzer(WithParallelism(4))
	for i := 0; i < 3; i++ {
		d, _, err := an.AnalyzeConfigs(context.Background(), fmt.Sprintf("run%d", i), configs)
		if err != nil {
			t.Fatal(err)
		}
		if d.Topology == nil || d.Instances == nil || d.AddressSpace == nil || d.Filters == nil {
			t.Fatal("incomplete design from parallel stages")
		}
	}
}

// TestReadHashFirstErrorByName: the pooled read pass reports the error
// of the first unreadable file by name, as a sequential loop would,
// whichever worker hit which failure first; and at every -j it returns
// the same inputs in name order under the same input key.
func TestReadHashFirstErrorByName(t *testing.T) {
	var names []string
	for c := 'a'; c <= 'z'; c++ {
		names = append(names, string(c)+".cfg")
	}
	text := func(bad ...string) func(string) (string, error) {
		return func(name string) (string, error) {
			for _, b := range bad {
				if name == b {
					return "", fmt.Errorf("cannot read %s", name)
				}
			}
			return "hostname " + strings.TrimSuffix(name, ".cfg") + "\n", nil
		}
	}
	var keys []string
	for _, j := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		an := NewAnalyzer(WithParallelism(j))
		_, _, err := an.readHash(context.Background(), names, text("t.cfg", "m.cfg", "x.cfg"))
		if err == nil || err.Error() != "cannot read m.cfg" {
			t.Errorf("j=%d: err = %v, want m.cfg's", j, err)
		}
		inputs, key, err := an.readHash(context.Background(), names, text())
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		for i, in := range inputs {
			if in.name != names[i] || in.key.Name != names[i] {
				t.Errorf("j=%d: slot %d holds %q, want %q", j, i, in.name, names[i])
			}
		}
		keys = append(keys, key)
	}
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Errorf("input keys differ by -j: %v", keys)
		}
	}
}

// TestReadDirSkipsNonRegularEntries: the pooled read pass takes only a
// directory's regular files, as the sequential loop did, so a
// subdirectory and a symlink change neither the devices nor the input
// key at any -j.
func TestReadDirSkipsNonRegularEntries(t *testing.T) {
	configs := mixedConfigs(t)
	plain := writeConfigDir(t, configs)
	cluttered := writeConfigDir(t, configs)
	if err := os.Mkdir(filepath.Join(cluttered, "b-subdir.cfg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(plain, "jmix.cfg"), filepath.Join(cluttered, "c-link.cfg")); err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 4} {
		an := NewAnalyzer(WithParallelism(j))
		want, err := an.AnalyzeDirResult(context.Background(), "mixed", plain, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := an.AnalyzeDirResult(context.Background(), "mixed", cluttered, nil)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if got.InputKey != want.InputKey || len(got.Design.Network.Devices) != len(configs) {
			t.Errorf("j=%d: %d devices under key %.12s, want %d under %.12s",
				j, len(got.Design.Network.Devices), got.InputKey, len(configs), want.InputKey)
		}
	}
}
