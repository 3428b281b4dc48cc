package core

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"routinglens/internal/diag"
	"routinglens/internal/telemetry"
)

// malformedDir is the on-disk regression corpus for ingestion hardening:
// a banner whose free text mimics commands, a CRLF/tab file, and three
// JunOS files with unbalanced braces — named so they sort before, among,
// and after the healthy files — that must be skipped, not fatal.
var malformedDir = filepath.Join("..", "..", "testdata", "malformed")

// malformedSkips is the corpus's expected skip list, in sorted order.
var malformedSkips = []string{"aa-bad-brace.cfg", "bad-brace.cfg", "zz-bad-brace.cfg"}

func TestAnalyzeDirMalformedCorpus(t *testing.T) {
	d, diags, err := NewAnalyzer().AnalyzeDir(context.Background(), malformedDir)
	if err != nil {
		t.Fatalf("lenient AnalyzeDir: %v", err)
	}
	if got := SkippedFiles(diags); !reflect.DeepEqual(got, malformedSkips) {
		t.Fatalf("SkippedFiles = %v, want %v", got, malformedSkips)
	}
	errs := 0
	for _, dg := range diags {
		if dg.Severity == diag.SevError {
			errs++
			if dg.Dialect != DialectJunOS {
				t.Errorf("skip diagnostic dialect = %q, want junos", dg.Dialect)
			}
		}
	}
	if errs != len(malformedSkips) {
		t.Errorf("severity-error diagnostics = %d, want exactly %d", errs, len(malformedSkips))
	}

	if len(d.Network.Devices) != 3 {
		t.Fatalf("devices = %d, want 3 (the *bad-brace.cfg files dropped)", len(d.Network.Devices))
	}
	byHost := map[string]bool{}
	for _, dev := range d.Network.Devices {
		byHost[dev.Hostname] = true
	}
	for _, h := range []string{"r1", "r2", "r3"} {
		if !byHost[h] {
			t.Errorf("missing device %s", h)
		}
	}

	// The banner's free text must never become configuration: r2 has one
	// OSPF process (10) and no Ethernet9.
	for _, dev := range d.Network.Devices {
		switch dev.Hostname {
		case "r2":
			if len(dev.Processes) != 1 || dev.Processes[0].ID != "10" {
				t.Errorf("r2 processes = %+v, want exactly ospf 10", dev.Processes)
			}
			if dev.Interface("Ethernet9") != nil {
				t.Error("banner text leaked: r2 has interface Ethernet9")
			}
		case "r3":
			// CRLF endings and tab indentation normalize away.
			i := dev.Interface("Ethernet0")
			if i == nil || !i.HasAddr() {
				t.Errorf("r3 Ethernet0 not parsed from CRLF file: %+v", i)
			}
			if len(dev.Processes) != 1 {
				t.Errorf("r3 processes = %d, want 1 (rip)", len(dev.Processes))
			}
		}
	}

	ff := NewAnalyzer(WithFailFast(true))
	if _, _, err := ff.AnalyzeDir(context.Background(), malformedDir); err == nil {
		t.Error("fail-fast AnalyzeDir should reject the unparseable files")
	} else if !strings.Contains(err.Error(), "bad-brace.cfg") {
		t.Errorf("fail-fast error should name the file, got %v", err)
	}
}

// TestSkippedFilesDeterministicAcrossParallelism pins the lenient-skip
// contract at every worker count: the skip list is identical and sorted,
// the per-file diagnostics keep their severity/dialect, and the
// routinglens_files_skipped_total counter lands on exactly the corpus's
// bad-file count whether the read and parse pools run sequentially,
// with a small fixed fan-out, or at GOMAXPROCS. The pooled read pass
// keys the corpus's CRLF/tab file like every other, so every worker
// count yields one input key and one parse count.
func TestSkippedFilesDeterministicAcrossParallelism(t *testing.T) {
	jobs := []int{1, 4, runtime.GOMAXPROCS(0)}
	inputKeys, filesParsed := map[string][]int{}, map[int][]int{}
	for _, j := range jobs {
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			ctx := telemetry.WithRegistry(context.Background(), reg)
			an := NewAnalyzer(WithParallelism(j))
			res, err := an.AnalyzeDirResult(ctx, "malformed", malformedDir, nil)
			if err != nil {
				t.Fatalf("AnalyzeDirResult(j=%d): %v", j, err)
			}
			if !reflect.DeepEqual(res.Skipped, malformedSkips) {
				t.Errorf("j=%d: Skipped = %v, want %v", j, res.Skipped, malformedSkips)
			}
			if !sort.StringsAreSorted(res.Skipped) {
				t.Errorf("j=%d: Skipped not sorted: %v", j, res.Skipped)
			}
			if got := SkippedFiles(res.Diagnostics); !reflect.DeepEqual(got, res.Skipped) {
				t.Errorf("j=%d: SkippedFiles(diags) = %v disagrees with Result.Skipped %v", j, got, res.Skipped)
			}
			if got := reg.Counter(MetricFilesSkipped).Value(); got != int64(len(malformedSkips)) {
				t.Errorf("j=%d: %s = %d, want %d", j, MetricFilesSkipped, got, len(malformedSkips))
			}
			if len(res.Design.Network.Devices) != 3 {
				t.Errorf("j=%d: devices = %d, want 3", j, len(res.Design.Network.Devices))
			}
			inputKeys[res.InputKey] = append(inputKeys[res.InputKey], j)
			filesParsed[res.FilesParsed] = append(filesParsed[res.FilesParsed], j)
		})
	}
	if len(inputKeys) != 1 {
		t.Errorf("input keys by -j differ: %v", inputKeys)
	}
	if len(filesParsed) != 1 {
		t.Errorf("FilesParsed by -j differs: %v", filesParsed)
	}
}
