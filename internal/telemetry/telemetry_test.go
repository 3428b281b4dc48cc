package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// --- metrics ---

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Re-look-up by name every time: the hot path must be
				// idempotent and race-free.
				r.Counter("c_total", L("worker", "shared")).Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", L("worker", "shared")).Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Gauge("g").Value(); got != workers*perWorker {
		t.Errorf("gauge = %v, want %d", got, workers*perWorker)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Histogram("h_seconds", nil).Observe(float64(w) / 10)
			}
		}(w)
	}
	wg.Wait()
	h := r.Histogram("h_seconds", nil)
	if h.Count() != workers*perWorker {
		t.Errorf("count = %d, want %d", h.Count(), workers*perWorker)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mono")
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5 (negative add ignored)", c.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m")
}

// goldenRegistry builds the deterministic registry both export goldens
// share.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.SetHelp("rl_devices_total", "Devices parsed.")
	r.Counter("rl_devices_total", L("dialect", "ios")).Add(6)
	r.Counter("rl_devices_total", L("dialect", "junos")).Add(2)
	r.Gauge("rl_instances", L("network", "example")).Set(5)
	r.Gauge("rl_rate").Set(1234.5)
	h := r.Histogram("rl_stage_seconds", []float64{0.001, 0.01, 0.1}, L("stage", "parse"))
	h.Observe(0.0005)
	h.Observe(0.02)
	h.Observe(7)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (re-run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestPrometheusExportGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "export.prom.golden", b.Bytes())
}

func TestJSONExportGolden(t *testing.T) {
	var b bytes.Buffer
	if err := goldenRegistry().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", b.String())
	}
	checkGolden(t, "export.json.golden", b.Bytes())
}

// --- spans ---

func TestSpanNesting(t *testing.T) {
	col := NewCollector()
	ctx := WithCollector(context.Background(), col)
	ctx = WithRegistry(ctx, NewRegistry())

	ctx, root := StartSpan(ctx, "root")
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.Fail(errors.New("boom"))
	grand.End()
	child.End()
	root.End()

	recs := col.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	// End order: deepest first.
	if recs[0].Name != "grandchild" || recs[1].Name != "child" || recs[2].Name != "root" {
		t.Errorf("order = %v", []string{recs[0].Name, recs[1].Name, recs[2].Name})
	}
	if recs[0].Depth != 2 || recs[1].Depth != 1 || recs[2].Depth != 0 {
		t.Errorf("depths = %d,%d,%d want 2,1,0", recs[0].Depth, recs[1].Depth, recs[2].Depth)
	}
	if recs[0].Path != "root/child/grandchild" {
		t.Errorf("path = %q", recs[0].Path)
	}
	if recs[0].Err != "boom" {
		t.Errorf("err = %q, want boom", recs[0].Err)
	}
	if recs[1].Err != "" || recs[2].Err != "" {
		t.Error("error leaked to parent spans")
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	col := NewCollector()
	ctx := WithCollector(context.Background(), col)
	ctx = WithRegistry(ctx, NewRegistry())
	_, s := StartSpan(ctx, "once")
	s.End()
	s.End()
	if got := len(col.Records()); got != 1 {
		t.Errorf("records = %d, want 1 (End must be idempotent)", got)
	}
}

func TestSpanObservesStageHistogram(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(WithCollector(context.Background(), NewCollector()), reg)
	_, s := StartSpan(ctx, "stage-x")
	s.End()
	h := reg.Histogram(StageSecondsMetric, nil, L("stage", "stage-x"))
	if h.Count() != 1 {
		t.Errorf("stage histogram count = %d, want 1", h.Count())
	}
}

// TestSpanCollectorScope: a span started from a context without a
// collector is recorded nowhere, though it still observes its stage
// histogram, and a span started under CLI.Context() lands in that CLI's
// own collector and no other.
func TestSpanCollectorScope(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	if CollectorFrom(ctx) != nil {
		t.Fatal("a context without a collector reports one")
	}
	_, s := StartSpan(ctx, "loose")
	s.End()
	if s.col != nil {
		t.Error("a span without a collector in its context was recorded")
	}
	if n := reg.Histogram(StageSecondsMetric, nil, L("stage", "loose")).Count(); n != 1 {
		t.Errorf("loose stage count = %d, want 1", n)
	}

	cli, other := NewCLI("a"), NewCLI("b")
	cctx, stop := cli.Context()
	defer stop()
	_, s = StartSpan(WithRegistry(cctx, reg), "cli-stage")
	s.End()
	if recs := cli.collector.Records(); len(recs) != 1 || recs[0].Name != "cli-stage" {
		t.Errorf("CLI collector records = %+v, want the one cli-stage span", recs)
	}
	if recs := other.collector.Records(); len(recs) != 0 {
		t.Errorf("another CLI's collector holds %d records, want 0", len(recs))
	}
}

// TestRequestContext: a handler running under RequestContext sees the
// request's trace ID and registry, and its spans nest under the request
// span in the request's collector; the request span itself observes no
// histogram (its caller does).
func TestRequestContext(t *testing.T) {
	reg := NewRegistry()
	col := NewCollector()
	root := StartRequestSpan("http/x", col, time.Now())
	ctx := RequestContext(context.Background(), "trace-1", reg, root)
	if TraceIDFrom(ctx) != "trace-1" || RegistryFrom(ctx) != reg || CollectorFrom(ctx) != col {
		t.Fatal("RequestContext does not answer for the trace ID, registry and collector")
	}
	_, child := StartSpan(ctx, "child")
	child.End()
	root.End()
	recs := col.Records()
	if len(recs) != 2 || recs[0].Path != "http/x/child" || recs[0].Depth != 1 || recs[1].Path != "http/x" {
		t.Fatalf("records = %+v, want http/x/child (depth 1) then http/x", recs)
	}
	if n := reg.Histogram(StageSecondsMetric, nil, L("stage", "child")).Count(); n != 1 {
		t.Errorf("child stage count = %d, want 1", n)
	}
	if n := reg.Histogram(StageSecondsMetric, nil, L("stage", "http/x")).Count(); n != 0 {
		t.Errorf("request span observed its own stage histogram %d times, want 0", n)
	}
}

func TestSpanSetName(t *testing.T) {
	col := NewCollector()
	ctx := WithCollector(context.Background(), col)
	ctx = WithRegistry(ctx, NewRegistry())
	_, s := StartSpan(ctx, "experiment")
	s.SetName("experiment:F11")
	s.End()
	if col.Records()[0].Name != "experiment:F11" {
		t.Errorf("name = %q", col.Records()[0].Name)
	}
}

func TestSpansConcurrent(t *testing.T) {
	col := NewCollector()
	ctx := WithCollector(context.Background(), col)
	ctx = WithRegistry(ctx, NewRegistry())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, s := StartSpan(ctx, "worker")
				s.End()
			}
		}()
	}
	wg.Wait()
	if got := len(col.Records()); got != 800 {
		t.Errorf("records = %d, want 800", got)
	}
}

// --- summary ---

func TestStageSummary(t *testing.T) {
	col := NewCollector()
	ctx := WithCollector(context.Background(), col)
	ctx = WithRegistry(ctx, NewRegistry())
	for i := 0; i < 3; i++ {
		_, s := StartSpan(ctx, "parse")
		time.Sleep(time.Millisecond)
		s.End()
	}
	_, s := StartSpan(ctx, "topology")
	s.Fail(errors.New("bad"))
	s.End()

	out := StageSummary(col)
	if !strings.Contains(out, "parse") || !strings.Contains(out, "topology") {
		t.Errorf("summary missing stages:\n%s", out)
	}
	// 3 parse calls and 1 topology error must show up in the table.
	if !strings.Contains(out, "3") {
		t.Errorf("summary missing call count:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two stages
		t.Errorf("summary rows = %d, want 4:\n%s", len(lines), out)
	}
}

func TestStageSummaryEmpty(t *testing.T) {
	if got := StageSummary(NewCollector()); !strings.Contains(got, "no stages") {
		t.Errorf("empty summary = %q", got)
	}
}

// --- logging and CLI ---

func TestVerbosityLevel(t *testing.T) {
	if VerbosityLevel(0).String() != "WARN" ||
		VerbosityLevel(1).String() != "INFO" ||
		VerbosityLevel(2).String() != "DEBUG" {
		t.Errorf("levels = %v,%v,%v", VerbosityLevel(0), VerbosityLevel(1), VerbosityLevel(2))
	}
}

func TestNewLoggerJSON(t *testing.T) {
	var b bytes.Buffer
	log := NewLogger(&b, "json", VerbosityLevel(2))
	log.Debug("hello", "k", "v")
	var m map[string]any
	if err := json.Unmarshal(b.Bytes(), &m); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, b.String())
	}
	if m["msg"] != "hello" || m["k"] != "v" {
		t.Errorf("log line = %v", m)
	}
}

func TestCLIActivateRejectsBadFormats(t *testing.T) {
	c := NewCLI("test")
	c.LogFormat = "yaml"
	if err := c.Activate(); err == nil {
		t.Error("expected error for bad -log-format")
	}
	c = NewCLI("test")
	c.LogFormat = "text"
	c.MetricsFormat = "xml"
	if err := c.Activate(); err == nil {
		t.Error("expected error for bad -metrics-format")
	}
}

func TestCLIRegisterFlags(t *testing.T) {
	c := NewCLI("test")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.RegisterFlags(fs)
	if err := fs.Parse([]string{"-vv", "-log-format", "json", "-metrics", "m.prom", "-metrics-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if c.Verbosity() != 2 || c.LogFormat != "json" || c.MetricsPath != "m.prom" || c.MetricsFormat != "json" {
		t.Errorf("parsed CLI = %+v", c)
	}
}
