package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"routinglens/internal/netaddr"
	"routinglens/internal/simroute"

	"routinglens/internal/classify"
	"routinglens/internal/net15"
	"routinglens/internal/netgen"
	"routinglens/internal/paperexample"
)

func TestAnalyzeConfigsPaperExample(t *testing.T) {
	d, diags, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "example", paperexample.Configs())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("diagnostics: %v", diags)
	}
	if len(d.Network.Devices) != 6 {
		t.Errorf("devices = %d", len(d.Network.Devices))
	}
	if len(d.Instances.Instances) != 5 {
		t.Errorf("instances = %d, want 5", len(d.Instances.Instances))
	}
	if d.Filters == nil || d.AddressSpace == nil || d.ProcessGraph == nil {
		t.Error("incomplete design")
	}
}

func TestAnalyzeDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for host, cfg := range paperexample.Configs() {
		if err := os.WriteFile(filepath.Join(dir, host+".cfg"), []byte(cfg), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, diags, err := NewAnalyzer().AnalyzeDir(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("diagnostics: %v", diags)
	}
	if len(d.Instances.Instances) != 5 {
		t.Errorf("instances = %d, want 5", len(d.Instances.Instances))
	}
}

func TestAnalyzeDirMissing(t *testing.T) {
	if _, _, err := NewAnalyzer().AnalyzeDir(context.Background(), "/nonexistent/path"); err == nil {
		t.Error("expected error for missing directory")
	}
}

func TestDesignPathway(t *testing.T) {
	d, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "example", paperexample.Configs())
	if err != nil {
		t.Fatal(err)
	}
	pw, err := d.Pathway("r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(pw.Feeders) == 0 {
		t.Error("pathway should have feeders")
	}
	if _, err := d.Pathway("missing"); err == nil {
		t.Error("expected error for unknown router")
	}
}

func TestDesignReachability(t *testing.T) {
	g := netgen.GenerateCorpus(3).ByName("net15")
	d, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "net15", g.Configs)
	if err != nil {
		t.Fatal(err)
	}
	an := d.Reachability(net15.ExternalRoutes())
	if an.HasDefaultRoute() {
		t.Error("net15 should filter the default route")
	}
	if !an.Partitioned(net15.AB2, net15.AB4) {
		t.Error("net15 sites should be partitioned")
	}
}

func TestSummaryRendering(t *testing.T) {
	d, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "example", paperexample.Configs())
	if err != nil {
		t.Fatal(err)
	}
	s := d.Summary()
	for _, want := range []string{"network example", "routing instances (5)", "BGP AS 12762", "design classification"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestClassificationExposed(t *testing.T) {
	g := netgen.GenerateCorpus(3).ByName("net1")
	d, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "net1", g.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Classification.Design != classify.DesignBackbone {
		t.Errorf("net1 classified as %s", d.Classification.Design)
	}
}

func TestInstanceBlocks(t *testing.T) {
	d, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "example", paperexample.Configs())
	if err != nil {
		t.Fatal(err)
	}
	blocks := d.InstanceBlocks()
	if len(blocks) != len(d.Instances.Instances) {
		t.Fatalf("blocks for %d instances, want %d", len(blocks), len(d.Instances.Instances))
	}
	// Every multi-router IGP instance is attached to at least one block.
	for _, in := range d.Instances.Instances {
		if in.Protocol.IsIGP() && in.Size() >= 2 && len(blocks[in.ID]) == 0 {
			t.Errorf("instance %s has no attached blocks", in.Label())
		}
	}
}

func TestDesignTrace(t *testing.T) {
	d, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "example", paperexample.Configs())
	if err != nil {
		t.Fatal(err)
	}
	path, err := d.Trace("r1", netaddr.MustParseAddr("10.10.3.1"),
		[]simroute.ExternalRoute{{Prefix: netaddr.PrefixFrom(0, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Hops) == 0 {
		t.Error("empty trace")
	}
}

func TestMixedVendorAnalyze(t *testing.T) {
	configs := map[string]string{
		"jrtr": `
system { host-name jrtr; }
interfaces {
    ge-0/0/0 { unit 0 { family inet { address 10.0.0.1/30; } } }
}
protocols {
    ospf { area 0.0.0.0 { interface ge-0/0/0.0; } }
}
`,
		"crtr": `hostname crtr
interface Serial0
 ip address 10.0.0.2 255.255.255.252
router ospf 1
 network 10.0.0.0 0.0.0.3 area 0
`,
	}
	d, diags, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "mixed", configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("diagnostics: %v", diags)
	}
	if len(d.Instances.Instances) != 1 || d.Instances.Instances[0].Size() != 2 {
		t.Errorf("mixed-vendor OSPF adjacency should form one 2-router instance: %+v", d.Instances.Instances)
	}
}

func TestDesignSurvivability(t *testing.T) {
	d, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "example", paperexample.Configs())
	if err != nil {
		t.Fatal(err)
	}
	surv := d.Survivability()
	// r5 sits between r4 and r6 in the backbone OSPF instance.
	found := false
	for _, rf := range surv.RouterFailures {
		if rf.Router.Hostname == "r5" {
			found = true
		}
	}
	if !found {
		t.Errorf("r5 should be an articulation router: %+v", surv.RouterFailures)
	}
}

func TestDesignAudit(t *testing.T) {
	d, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "example", paperexample.Configs())
	if err != nil {
		t.Fatal(err)
	}
	rep := d.Audit()
	// r4's EBGP session to R7 carries no route filters in the example.
	var foundEBGP bool
	for _, f := range rep.Findings {
		if f.Device.Hostname == "r4" && strings.Contains(f.Detail, "route filter") {
			foundEBGP = true
		}
	}
	if !foundEBGP {
		t.Errorf("unfiltered EBGP session to R7 not flagged: %+v", rep.Findings)
	}
}

func TestDesignDiff(t *testing.T) {
	before, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "example", paperexample.Configs())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := paperexample.Configs()
	delete(cfgs, "r3")
	after, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "example", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	diff := after.DiffFrom(before)
	if len(diff.RoutersRemoved) != 1 || diff.RoutersRemoved[0] != "r3" {
		t.Errorf("diff = %s", diff)
	}
	same := before.DiffFrom(before)
	if !same.Empty() {
		t.Errorf("self-diff should be empty: %s", same)
	}
}

func TestSuspectedMissingRouters(t *testing.T) {
	// Drop a mid-tree router from an enterprise network whose /30s are
	// allocated consecutively (so they aggregate into one address block):
	// the missing router's neighbors show "external-facing" interfaces in
	// the middle of an overwhelmingly internal block — the paper's
	// missing-router signature.
	cfgs := netgen.GenerateCorpus(3).ByName("net6").Configs
	before, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "net6", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(before.SuspectedMissingRouters()); n != 0 {
		t.Fatalf("complete corpus should have no suspects, got %d", n)
	}
	delete(cfgs, "r10")
	d, _, err := NewAnalyzer().AnalyzeConfigs(context.Background(), "net6", cfgs)
	if err != nil {
		t.Fatal(err)
	}
	suspects := d.SuspectedMissingRouters()
	if len(suspects) == 0 {
		t.Fatal("removing r10 should produce missing-router suspects")
	}
	for _, s := range suspects {
		if s.Device.Hostname == "r10" {
			t.Error("the missing router itself cannot be a suspect")
		}
		if s.InternalShare < 0.5 {
			t.Errorf("suspect internal share = %f", s.InternalShare)
		}
	}
}
