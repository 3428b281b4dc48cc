package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"routinglens/internal/devmodel"
	"routinglens/internal/netgen"
	"routinglens/internal/telemetry"
)

// TestUnchangedInputReturnsPrev: given the previous Result, an unchanged
// directory answers with that Result itself before any snapshot read,
// parse or stage, with or without a snapshot directory: the read_hash
// span that keyed the files is its only span. Under another network name
// the same files are analyzed anew.
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
		var spans []string
		for _, r := range col.Records() {
			spans = append(spans, r.Name)
		}
		if !reflect.DeepEqual(spans, []string{"read_hash"}) {
			t.Errorf("snapshot dir %q: an unchanged reload recorded spans %v, want only read_hash", snapDir, spans)
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
// its own parses: every file cold (881 on net5), 1 after the edit. The
// parse counters count parses too, not the devices taken from the
// previous Result: the edit adds one device and its lines.
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
			devices := func(dialect string) int64 {
				return reg.Counter(MetricDevicesParsed, telemetry.L("dialect", dialect)).Value()
			}
			if got := devices(DialectIOS) + devices(DialectJunOS); got != 1 {
				t.Errorf("%s = %d after a one-file edit, want 1", MetricDevicesParsed, got)
			}
			var editedDev *devmodel.Device
			for _, d := range res.Design.Network.Devices {
				if d.FileName == edited+".cfg" {
					editedDev = d
				}
			}
			if editedDev == nil {
				t.Fatalf("no device from %s.cfg", edited)
			}
			if got := reg.Counter(MetricConfigLines).Value(); got != int64(editedDev.RawLines) {
				t.Errorf("%s = %d after a one-file edit, want the edited file's %d", MetricConfigLines, got, editedDev.RawLines)
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
