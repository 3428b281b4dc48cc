package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"routinglens/internal/netgen"
	"routinglens/internal/telemetry"
)

// TestUnchangedInputReturnsPrev: given the previous Result, an unchanged
// directory answers with that Result itself before any snapshot read,
// parse or stage, with or without a snapshot directory. Under another
// network name the same files are analyzed anew.
func TestUnchangedInputReturnsPrev(t *testing.T) {
	dir := writeNamedConfigDir(t, "netsame", mixedConfigs(t))
	for _, snapDir := range []string{"", t.TempDir()} {
		an := NewAnalyzer(WithSnapshotDir(snapDir))
		prev, err := an.AnalyzeDirResult(context.Background(), "netsame", dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		reg, col := telemetry.NewRegistry(), telemetry.NewCollector()
		ctx := telemetry.WithCollector(telemetry.WithRegistry(context.Background(), reg), col)
		res, err := an.AnalyzeDirResult(ctx, "netsame", dir, prev)
		if err != nil {
			t.Fatal(err)
		}
		if res != prev {
			t.Errorf("snapshot dir %q: an unchanged reload did not return the previous Result", snapDir)
		}
		if recs := col.Records(); len(recs) != 0 {
			t.Errorf("snapshot dir %q: an unchanged reload recorded %d spans, want none (first %q)", snapDir, len(recs), recs[0].Name)
		}
		for _, m := range []string{MetricSnapshotLoads, MetricSnapshotMisses, MetricSnapshotInvalid, MetricSnapshotWrites} {
			if got := netCounter(reg, m, "netsame"); got != 0 {
				t.Errorf("snapshot dir %q: %s = %d on an unchanged reload, want 0", snapDir, m, got)
			}
		}
		if got := gauge(reg, MetricFilesReparsed); got != 0 {
			t.Errorf("snapshot dir %q: an unchanged reload reparsed %v files", snapDir, got)
		}

		other, err := an.AnalyzeDirResult(context.Background(), "netother", dir, prev)
		if err != nil {
			t.Fatal(err)
		}
		if other == prev || other.Design.Network.Name != "netother" {
			t.Errorf("snapshot dir %q: another network name answered with the previous Result", snapDir)
		}
	}
}

// TestPrevResultParsesOnlyEditedFile is the reuse contract at scale: an
// analyzer with no parse cache, given the previous Result, parses only
// the file an edit changed. That holds on net5 and on a provider network
// larger than rlensd's old 4,096-entry parse cache, and the design,
// devices and diagnostics equal a fresh analysis's. Each Result counts
// its own parses: every file cold (881 on net5), 1 after the edit.
func TestPrevResultParsesOnlyEditedFile(t *testing.T) {
	for _, g := range []*netgen.Generated{netgen.GenerateCorpus(2004).ByName("net5"), netgen.GenerateProvider(2004, 4500)} {
		t.Run(g.Name, func(t *testing.T) {
			dir := writeNamedConfigDir(t, g.Name, g.Configs)
			an := NewAnalyzer()
			prev, err := an.AnalyzeDirResult(context.Background(), g.Name, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			hosts := make([]string, 0, len(g.Configs))
			for h := range g.Configs {
				hosts = append(hosts, h)
			}
			sort.Strings(hosts)
			if prev.FilesParsed != len(hosts) {
				t.Errorf("a cold analysis parsed %d of %d files", prev.FilesParsed, len(hosts))
			}
			edited := hosts[len(hosts)/2]
			text := g.Configs[edited] + "ip route 198.18.0.1 255.255.255.255 Null0\n"
			if err := os.WriteFile(filepath.Join(dir, edited+".cfg"), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}

			reg := telemetry.NewRegistry()
			res, err := an.AnalyzeDirResult(telemetry.WithRegistry(context.Background(), reg), g.Name, dir, prev)
			if err != nil {
				t.Fatal(err)
			}
			if got := gauge(reg, MetricFilesReparsed); got != 1 || res.FilesParsed != 1 {
				t.Errorf("a one-file edit reparsed %v (Result: %d) of %d files, want 1", got, res.FilesParsed, len(hosts))
			}
			if got := reg.Counter(MetricCacheHits).Value(); got != int64(len(hosts)-1) {
				t.Errorf("a one-file edit took %d parses from the previous Result, want %d", got, len(hosts)-1)
			}
			fresh, err := NewAnalyzer().AnalyzeDirResult(context.Background(), g.Name, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.InputKey != fresh.InputKey || res.Design.Summary() != fresh.Design.Summary() {
				t.Errorf("input key or summary differs from a fresh analysis")
			}
			if !reflect.DeepEqual(res.Design.Network.Devices, fresh.Design.Network.Devices) {
				t.Errorf("devices differ from a fresh analysis")
			}
			if !reflect.DeepEqual(res.Diagnostics, fresh.Diagnostics) {
				t.Errorf("diagnostics differ from a fresh analysis")
			}
		})
	}
}
