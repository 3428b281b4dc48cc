// Tests of the public API surface: the aliases and entry points a
// downstream consumer uses, plus a full corpus-to-disk round trip.
package routinglens_test

import (
	"context"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"routinglens"
)

func TestPublicAnalyzeConfigs(t *testing.T) {
	configs := map[string]string{
		"a": "hostname a\ninterface Serial0\n ip address 10.0.0.1 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n",
		"b": "hostname b\ninterface Serial0\n ip address 10.0.0.2 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n",
	}
	design, diags, err := routinglens.NewAnalyzer().AnalyzeConfigs(context.Background(), "tiny", configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("diags: %v", diags)
	}
	if len(design.Instances.Instances) != 1 {
		t.Errorf("instances = %d", len(design.Instances.Instances))
	}
	if _, err := design.Pathway("a"); err != nil {
		t.Errorf("pathway: %v", err)
	}
}

// TestPublicAnalyzer exercises the configurable entry point: functional
// options, parallel parsing, and agreement with the default configuration.
func TestPublicAnalyzer(t *testing.T) {
	g := routinglens.GenerateCorpus(11).ByName("net7")
	an := routinglens.NewAnalyzer(
		routinglens.WithParallelism(4),
		routinglens.WithDialectHint(routinglens.DialectIOS),
		routinglens.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
	)
	design, diags, err := an.AnalyzeConfigs(context.Background(), g.Name, g.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("diags: %v", diags)
	}
	plain, _, err := routinglens.NewAnalyzer().AnalyzeConfigs(context.Background(), g.Name, g.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if design.Summary() != plain.Summary() {
		t.Errorf("configured and default Analyzer disagree:\n%s\nvs\n%s",
			design.Summary(), plain.Summary())
	}
	if an.Parallelism() != 4 {
		t.Errorf("Parallelism() = %d, want 4", an.Parallelism())
	}
}

func TestPublicParseHelpers(t *testing.T) {
	p, err := routinglens.ParsePrefix("10.0.0.0/8")
	if err != nil || p.Bits() != 8 {
		t.Errorf("ParsePrefix: %v %v", p, err)
	}
	a, err := routinglens.ParseAddr("192.0.2.1")
	if err != nil || a.String() != "192.0.2.1" {
		t.Errorf("ParseAddr: %v %v", a, err)
	}
	if _, err := routinglens.ParsePrefix("banana"); err == nil {
		t.Error("bad prefix should error")
	}
}

// Full round trip through the disk layout the CLI tools use: generate a
// network, write it, AnalyzeDir it, anonymize it, analyze again, and check
// design invariance through the public API only.
func TestCorpusDiskRoundTrip(t *testing.T) {
	corpus := routinglens.GenerateCorpus(11)
	g := corpus.ByName("net7")
	dir := t.TempDir()
	for host, cfg := range g.Configs {
		if err := os.WriteFile(filepath.Join(dir, host+".cfg"), []byte(cfg), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	design, _, err := routinglens.NewAnalyzer().AnalyzeDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(design.Network.Devices) != g.Routers {
		t.Fatalf("devices = %d, want %d", len(design.Network.Devices), g.Routers)
	}
	if design.Classification.Design != routinglens.DesignEnterprise {
		t.Errorf("classification = %s", design.Classification.Design)
	}

	anon := routinglens.NewAnonymizer("round-trip-key")
	anonConfigs, err := anon.MapNetwork(g.Configs)
	if err != nil {
		t.Fatal(err)
	}
	anonDesign, _, err := routinglens.NewAnalyzer().AnalyzeConfigs(context.Background(), "anon", anonConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if len(anonDesign.Instances.Instances) != len(design.Instances.Instances) {
		t.Errorf("anonymization changed the instance count: %d -> %d",
			len(design.Instances.Instances), len(anonDesign.Instances.Instances))
	}
	if anonDesign.Classification.Design != design.Classification.Design {
		t.Errorf("anonymization changed the classification: %s -> %s",
			design.Classification.Design, anonDesign.Classification.Design)
	}
}

func TestPublicOperationalTools(t *testing.T) {
	g := routinglens.GenerateCorpus(11).ByName("net6")
	design, _, err := routinglens.NewAnalyzer().AnalyzeConfigs(context.Background(), g.Name, g.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if rep := design.Audit(); rep == nil {
		t.Error("audit nil")
	}
	if surv := design.Survivability(); surv == nil {
		t.Error("survivability nil")
	}
	if mp := design.MonitorPlacement(); len(mp.Monitors) == 0 {
		t.Error("monitor placement empty for a network with external peers")
	}
	inf, err := design.Influence("r3")
	if err != nil || len(inf.Reached) == 0 {
		t.Errorf("influence: %v %v", inf, err)
	}
	if dot := design.DOTInstanceGraph(); len(dot) == 0 {
		t.Error("DOT instance graph empty")
	}
	if _, err := design.DOTPathway("r3"); err != nil {
		t.Errorf("DOT pathway: %v", err)
	}
	diff := design.DiffFrom(design)
	if !diff.Empty() {
		t.Errorf("self diff should be empty: %s", diff)
	}
}
