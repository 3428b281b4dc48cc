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
// file. Absent or stale-key snapshots are misses; corrupt, truncated,
// or version-skewed ones are counted invalid and refused. A restored
// design is rebuilt by re-running the deterministic analysis stages
// over the snapshotted device tree, and the parse cache is warmed so
// subsequent reloads stay incremental.
func (a *Analyzer) snapshotLoad(ctx context.Context, netName, key string) (design *Design, diags []Diagnostic, ok bool) {
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
			design, diags, ok = nil, nil, false
		}
	}()
	if err := a.faults.Fire(ctx, SiteSnapshotLoad); err != nil {
		reg.Counter(MetricSnapshotInvalid, lnet).Inc()
		log.Warn("snapshot load failed; falling back to full analysis", "path", path, "error", err)
		return nil, nil, false
	}
	s, err := snapshot.Load(path)
	if err != nil {
		if os.IsNotExist(err) {
			reg.Counter(MetricSnapshotMisses, lnet).Inc()
			return nil, nil, false
		}
		reg.Counter(MetricSnapshotInvalid, lnet).Inc()
		log.Warn("snapshot refused; falling back to full analysis", "path", path, "error", err)
		return nil, nil, false
	}
	if s.AnalysisVersion != AnalysisVersion {
		reg.Counter(MetricSnapshotInvalid, lnet).Inc()
		log.Warn("snapshot analysis-version skew; falling back to full analysis",
			"path", path, "snapshot_version", s.AnalysisVersion, "want", AnalysisVersion)
		return nil, nil, false
	}
	if s.Key != key || s.NetworkName != netName {
		// The configuration set changed since the snapshot was taken (or
		// the file was copied across networks): stale, an ordinary miss.
		// The caller re-analyzes and refreshes the snapshot.
		reg.Counter(MetricSnapshotMisses, lnet).Inc()
		log.Info("snapshot stale; re-analyzing", "path", path, "snapshot_key", s.Key, "want", key)
		return nil, nil, false
	}

	n := &devmodel.Network{Name: netName, Devices: s.Devices}
	design = a.Analyze(ctx, n)
	diags = make([]Diagnostic, len(s.Diags))
	for i, d := range s.Diags {
		diags[i] = Diagnostic{File: d.File, Line: d.Line, Severity: d.Severity, Dialect: d.Dialect, Msg: d.Msg}
	}
	a.snapshotSeed(s, diags)
	reg.Counter(MetricSnapshotLoads, lnet).Inc()
	log.Info("design restored from snapshot", "path", path, "routers", len(s.Devices), "key", key)
	return design, diags, true
}

// snapshotStore writes the analysis as netName's refreshed snapshot;
// failures (or injected faults) just skip the write.
func (a *Analyzer) snapshotStore(ctx context.Context, netName, key string, design *Design, diags []Diagnostic, files []snapshot.FileSig) {
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
	sd := make([]snapshot.Diag, len(diags))
	for i, d := range diags {
		sd[i] = snapshot.Diag{File: d.File, Line: d.Line, Severity: d.Severity, Dialect: d.Dialect, Msg: d.Msg}
	}
	s := &snapshot.Snapshot{
		AnalysisVersion: AnalysisVersion,
		Key:             key,
		NetworkName:     netName,
		Devices:         design.Network.Devices,
		Diags:           sd,
		Files:           files,
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
	log.Info("snapshot written", "path", path, "routers", len(design.Network.Devices), "key", key)
}

// snapshotSeed warms the parse cache from a restored snapshot: each
// snapshotted file with a device becomes a cache entry, so an
// edited-one-file reload re-parses one file, not all of them. Files
// without a device — the skipped, unparseable ones — are not cached,
// matching a fresh parse: they are re-diagnosed every load.
func (a *Analyzer) snapshotSeed(s *snapshot.Snapshot, diags []Diagnostic) {
	if a.cache == nil {
		return
	}
	devByFile := make(map[string]*devmodel.Device, len(s.Devices))
	for _, dev := range s.Devices {
		devByFile[dev.FileName] = dev
	}
	diagsByFile := make(map[string][]Diagnostic)
	for _, d := range diags {
		if d.File != "" {
			diagsByFile[d.File] = append(diagsByFile[d.File], d)
		}
	}
	for _, f := range s.Files {
		dev := devByFile[f.Name]
		if dev == nil {
			continue
		}
		key := parsecache.Key{Dialect: f.Dialect, Name: f.Name, Sum: f.Sum}
		a.cache.PutFrom(key, &cacheEntry{dev: dev, diags: diagsByFile[f.Name], dialect: f.Dialect}, f.Size, a.cacheOrigin)
	}
}
