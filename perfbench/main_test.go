package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"routinglens/perfbench/workload"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// driver must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	var specs []string
	for _, s := range workload.Specs {
		specs = append(specs, s.Name)
	}
	if strings.Join(declared, " ") != strings.Join(specs, " ") {
		t.Errorf("workloads: BENCHMARK.json has %v, the driver %v", declared, specs)
	}
	compare := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, driver []metric) {
		var a, d []string
		for _, m := range file {
			a = append(a, m.Name+" "+m.Unit)
		}
		for _, m := range driver {
			d = append(d, m.name+" "+m.unit)
		}
		if strings.Join(a, ", ") != strings.Join(d, ", ") {
			t.Errorf("%s metrics differ:\nBENCHMARK.json: %v\ndriver:         %v", kind, a, d)
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
}

func TestCheckMetricsFlagsMissingAndUnmeasured(t *testing.T) {
	m := map[string]metricValue{}
	for _, mt := range endToEnd {
		m[mt.name] = metricValue{1, mt.unit}
	}
	if p := checkMetrics(m, false); len(p) != 0 {
		t.Fatalf("complete metrics flagged: %v", p)
	}
	delete(m, "setup_s")
	m["reload_p50_s"] = metricValue{0, "s"}
	if p := checkMetrics(m, false); len(p) != 2 {
		t.Fatalf("want a missing and an unmeasured metric flagged, got %v", p)
	}
}

// The driver runs as this test binary when PERFBENCH_RUN_MAIN is set, so
// a test can check its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInjectedFaultsFailTheRun arms rlensd's pathway handler to fail
// every request and runs the fleet workload end to end: the failures
// must show in the result and the error ratio, and the command must exit
// non-zero. It builds the daemon and serves three networks (~25s).
func TestInjectedFaultsFailTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon end to end")
	}
	cmd := exec.CommandContext(context.Background(), os.Args[0],
		"--workload", "fleet-query-mix", "--seed", "1", "--seconds", "1",
		"--daemon-faults", "handler.pathway:error")
	cmd.Dir = ".." // the repository root
	cmd.Env = append(os.Environ(), "PERFBENCH_RUN_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1, got %v", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want an info line and a result line, got %q", stdout.String())
	}
	var info struct {
		ErrorRatio float64 `json:"error_ratio"`
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &info); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Attempted <= res.Failed || info.ErrorRatio <= 0 {
		t.Fatalf("faults did not fail the run: %+v, error_ratio %v", res, info.ErrorRatio)
	}
}
