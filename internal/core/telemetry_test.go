package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"routinglens/internal/diag"
	"routinglens/internal/paperexample"
	"routinglens/internal/telemetry"
)

// TestAnalyzeDirEmitsTelemetry runs the full pipeline over a directory
// with an isolated collector/registry and asserts that every stage
// produced a span and the parse metrics were recorded.
func TestAnalyzeDirEmitsTelemetry(t *testing.T) {
	dir := t.TempDir()
	for host, cfg := range paperexample.Configs() {
		if err := os.WriteFile(filepath.Join(dir, host+".cfg"), []byte(cfg), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	col := telemetry.NewCollector()
	reg := telemetry.NewRegistry()
	ctx := telemetry.WithRegistry(telemetry.WithCollector(context.Background(), col), reg)

	d, _, err := NewAnalyzer().AnalyzeDir(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Instances.Instances) == 0 {
		t.Fatal("no instances")
	}

	counts := make(map[string]int)
	for _, r := range col.Records() {
		counts[r.Name]++
		if r.Err != "" {
			t.Errorf("span %s failed: %s", r.Name, r.Err)
		}
	}
	for _, stage := range []string{
		"read_hash", "parse", "analyze", "topology", "procgraph", "instance",
		"addrspace", "filters", "classify",
	} {
		if counts[stage] != 1 {
			t.Errorf("stage %q spans = %d, want 1", stage, counts[stage])
		}
	}
	if want := len(paperexample.Configs()); counts["parse-file"] != want {
		t.Errorf("parse-file spans = %d, want %d", counts["parse-file"], want)
	}

	if got := reg.Counter(MetricDevicesParsed, telemetry.L("dialect", "ios")).Value(); got != 6 {
		t.Errorf("devices parsed = %d, want 6", got)
	}
	if reg.Counter(MetricConfigLines).Value() == 0 {
		t.Error("no config lines counted")
	}
	if reg.Gauge(MetricInstances, telemetry.L("network", filepath.Base(dir))).Value() == 0 {
		t.Error("instances gauge not set")
	}
	for _, stage := range []string{"read_hash", "topology", "procgraph", "instance", "addrspace", "filters", "classify"} {
		h := reg.Histogram(telemetry.StageSecondsMetric, nil, telemetry.L("stage", stage))
		if h.Count() != 1 {
			t.Errorf("stage %q latency observations = %d, want 1", stage, h.Count())
		}
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE " + MetricDevicesParsed + " counter",
		"# TYPE " + telemetry.StageSecondsMetric + " histogram",
		MetricDevicesParsed + `{dialect="ios"} 6`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus export missing %q:\n%s", want, prom.String())
		}
	}
}

// TestParseOnePreservesJunosDiagnostics checks the shared-diagnostic
// conversion: a JunOS diagnostic's file, line, and severity must survive
// into core.Diagnostic (the seed dropped severity and dialect).
func TestParseOnePreservesJunosDiagnostics(t *testing.T) {
	cfg := `system { host-name j1; }
routing-options { autonomous-system 65001; }
interfaces {
    ge-0/0/0 { unit 0 { family inet { address notanip; } } }
}
`
	dev, ds, dialect, err := NewAnalyzer().parseFile("j1.conf", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dialect != DialectJunOS {
		t.Errorf("dialect = %q, want junos", dialect)
	}
	if dev.Hostname != "j1" {
		t.Errorf("hostname = %q", dev.Hostname)
	}
	if len(ds) == 0 {
		t.Fatal("expected diagnostics for bad address")
	}
	found := false
	for _, d := range ds {
		if d.Dialect != "junos" {
			t.Errorf("dialect = %q, want junos", d.Dialect)
		}
		if d.File != "j1.conf" {
			t.Errorf("file = %q, want j1.conf", d.File)
		}
		if d.Line == 0 {
			t.Errorf("line lost in conversion: %+v", d)
		}
		if strings.Contains(d.Msg, "notanip") {
			found = true
			if d.Severity != diag.SevWarn {
				t.Errorf("bad-address severity = %v, want warning", d.Severity)
			}
		}
	}
	if !found {
		t.Errorf("no bad-address diagnostic in %v", ds)
	}
}

// TestCountBySeverity checks the severity tally used by the CLI summary.
func TestCountBySeverity(t *testing.T) {
	ds := []Diagnostic{
		{Severity: diag.SevWarn}, {Severity: diag.SevWarn},
		{Severity: diag.SevError}, {Severity: diag.SevInfo},
	}
	got := CountBySeverity(ds)
	if got[diag.SevWarn] != 2 || got[diag.SevError] != 1 || got[diag.SevInfo] != 1 {
		t.Errorf("counts = %v", got)
	}
}
