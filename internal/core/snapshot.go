package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"routinglens/internal/devmodel"
	"routinglens/internal/parsecache"
	"routinglens/internal/snapshot"
	"routinglens/internal/telemetry"
)

// AnalysisVersion names the semantics of the parse + analysis pipeline
// and is baked into every snapshot's content key. Bump it whenever a
// parser or stage change alters the analyzed design for identical input
// bytes: old snapshots then fail the version check (and miss by key)
// instead of replaying a stale design as if it were current.
const AnalysisVersion = "1"

// Fault-injection sites of the snapshot path. Like the cache sites,
// both degrade rather than fail: a load fault falls back to full
// re-analysis, a store fault just skips the write. Either way the
// analysis output is byte-identical to an un-snapshotted run.
const (
	SiteSnapshotLoad  = "snapshot.load"
	SiteSnapshotStore = "snapshot.store"
)

// snapshotLoad tries to restore netName's analysis from its snapshot
// file, returning nil when it cannot. Absent or stale-key snapshots are
// misses; corrupt, truncated, or version-skewed ones are counted invalid
// and refused. A restored design is rebuilt by re-running the
// deterministic analysis stages over the snapshotted device tree, and its
// Result gets the parse table a fresh parse would have built.
func (a *Analyzer) snapshotLoad(ctx context.Context, netName, key string) (res *Result) {
	reg := telemetry.RegistryFrom(ctx)
	registerHelp(reg)
	lnet := telemetry.L("net", netName)
	log := a.log().With("network", netName)
	path := filepath.Join(a.snapDir, netName+snapshot.FileExt)
	defer func() {
		if r := recover(); r != nil {
			reg.Counter(MetricSnapshotInvalid, lnet).Inc()
			log.Warn("snapshot load panicked; falling back to full analysis",
				"path", path, "panic", fmt.Sprint(r))
			res = nil
		}
	}()
	if err := a.faults.Fire(ctx, SiteSnapshotLoad); err != nil {
		reg.Counter(MetricSnapshotInvalid, lnet).Inc()
		log.Warn("snapshot load failed; falling back to full analysis", "path", path, "error", err)
		return nil
	}
	s, err := snapshot.Load(path)
	if err != nil {
		if os.IsNotExist(err) {
			reg.Counter(MetricSnapshotMisses, lnet).Inc()
			return nil
		}
		reg.Counter(MetricSnapshotInvalid, lnet).Inc()
		log.Warn("snapshot refused; falling back to full analysis", "path", path, "error", err)
		return nil
	}
	if s.AnalysisVersion != AnalysisVersion {
		reg.Counter(MetricSnapshotInvalid, lnet).Inc()
		log.Warn("snapshot analysis-version skew; falling back to full analysis",
			"path", path, "snapshot_version", s.AnalysisVersion, "want", AnalysisVersion)
		return nil
	}
	if s.Key != key || s.NetworkName != netName {
		// The configuration set changed since the snapshot was taken (or
		// the file was copied across networks): stale, an ordinary miss.
		// The caller re-analyzes and refreshes the snapshot.
		reg.Counter(MetricSnapshotMisses, lnet).Inc()
		log.Info("snapshot stale; re-analyzing", "path", path, "snapshot_key", s.Key, "want", key)
		return nil
	}

	diags := make([]Diagnostic, len(s.Diags))
	byFile := make(map[string][]Diagnostic)
	for i, d := range s.Diags {
		diags[i] = Diagnostic{File: d.File, Line: d.Line, Severity: d.Severity, Dialect: d.Dialect, Msg: d.Msg}
		byFile[d.File] = append(byFile[d.File], diags[i])
	}
	devByFile := make(map[string]*devmodel.Device, len(s.Devices))
	for _, dev := range s.Devices {
		devByFile[dev.FileName] = dev
	}
	parses := make(map[parsecache.Key]cacheEntry, len(s.Devices))
	for _, f := range s.Files {
		if dev := devByFile[f.Name]; dev != nil {
			parses[parsecache.Key{Dialect: f.Dialect, Name: f.Name, Sum: f.Sum}] = cacheEntry{dev: dev, diags: byFile[f.Name], dialect: f.Dialect}
		}
	}
	res = &Result{
		Design:      a.Analyze(ctx, &devmodel.Network{Name: netName, Devices: s.Devices}),
		Diagnostics: diags, Skipped: SkippedFiles(diags),
		InputKey: key, FromSnapshot: true, parses: parses,
	}
	reg.Counter(MetricSnapshotLoads, lnet).Inc()
	log.Info("design restored from snapshot", "path", path, "routers", len(s.Devices), "key", key)
	return res
}

// snapshotStore writes the analysis of inputs as netName's refreshed
// snapshot; failures (or injected faults) just skip the write.
func (a *Analyzer) snapshotStore(ctx context.Context, netName string, res *Result, inputs []fileInput) {
	reg := telemetry.RegistryFrom(ctx)
	registerHelp(reg)
	log := a.log().With("network", netName)
	defer func() {
		if r := recover(); r != nil {
			log.Warn("snapshot store panicked; snapshot not written", "panic", fmt.Sprint(r))
		}
	}()
	if err := a.faults.Fire(ctx, SiteSnapshotStore); err != nil {
		log.Warn("snapshot store failed; snapshot not written", "error", err)
		return
	}
	sd := make([]snapshot.Diag, len(res.Diagnostics))
	for i, d := range res.Diagnostics {
		sd[i] = snapshot.Diag{File: d.File, Line: d.Line, Severity: d.Severity, Dialect: d.Dialect, Msg: d.Msg}
	}
	s := &snapshot.Snapshot{
		AnalysisVersion: AnalysisVersion,
		Key:             res.InputKey,
		NetworkName:     netName,
		Devices:         res.Design.Network.Devices,
		Diags:           sd,
		Files:           fileSigs(inputs),
	}
	if err := os.MkdirAll(a.snapDir, 0o755); err != nil {
		log.Warn("snapshot store failed; snapshot not written", "error", err)
		return
	}
	path := filepath.Join(a.snapDir, netName+snapshot.FileExt)
	if err := snapshot.Write(path, s); err != nil {
		log.Warn("snapshot store failed; snapshot not written", "path", path, "error", err)
		return
	}
	reg.Counter(MetricSnapshotWrites, telemetry.L("net", netName)).Inc()
	log.Info("snapshot written", "path", path, "routers", len(res.Design.Network.Devices), "key", res.InputKey)
}
