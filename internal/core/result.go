package core

import (
	"context"
	"path/filepath"
	"sort"
	"time"

	"routinglens/internal/parsecache"
	"routinglens/internal/telemetry"
)

// Result bundles one complete analysis outcome: the design plus the parse
// diagnostics and the skipped-file list already extracted from them. It
// exists for callers that hold analyses and swap them atomically — the
// serve daemon keeps its "last-good design" as a *Result — so the swap is
// one pointer store instead of three coordinated fields. It is also the
// cache of the network's next analysis (AnalyzeDirResult's prev).
//
// A failed analysis returns a nil Result, except one that failed while
// parsing (cancelled, or fail-fast): its Result holds only the sorted
// diagnostics of the files that parsed, so a CLI can still report them.
type Result struct {
	Design      *Design
	Diagnostics []Diagnostic
	// Skipped names the files a lenient analysis dropped, sorted
	// (SkippedFiles of Diagnostics, precomputed).
	Skipped []string
	// Elapsed is the wall-clock analysis duration.
	Elapsed time.Duration
	// InputKey is the content address of the analyzed input: every file's
	// dialect, name and normalized-content hash, under AnalysisVersion.
	// Two results of one network with equal keys are analyses of
	// byte-identical input.
	InputKey string
	// FromSnapshot reports whether the design was restored from the
	// network's snapshot file rather than parsed from configuration
	// text.
	FromSnapshot bool
	// FilesParsed is how many files this analysis parsed instead of
	// taking them from the previous Result: every file on a cold start,
	// 1 after a one-file edit, 0 for a snapshot restore. Unlike the
	// process-wide MetricFilesReparsed gauge, which every network's
	// analysis overwrites, it belongs to this network's analysis.
	FilesParsed int
	// parses maps each parsed file's key to its device (the one Design
	// points at) and diagnostics. Files that failed to parse are absent,
	// so they are re-diagnosed every time.
	parses map[parsecache.Key]cacheEntry
}

// AnalyzeDirResult is AnalyzeDir packaged as a single swappable Result,
// with the network named name rather than after dir: a server analyzing
// one network from successive directories (a push's staging directory,
// then its promoted generation) keeps one design name and one snapshot
// file.
//
// prev is the network's current Result, or nil. When the input key and
// the name equal prev's, prev itself is returned before any snapshot
// read, parse or stage; otherwise only the files absent from prev's parse
// table are parsed. The snapshot is read only when prev is nil.
func (a *Analyzer) AnalyzeDirResult(ctx context.Context, name, dir string, prev *Result) (*Result, error) {
	start := time.Now()
	inputs, key, err := a.readDir(ctx, dir)
	if err != nil {
		return nil, err
	}
	if prev != nil && prev.InputKey == key && prev.Design.Network.Name == name {
		telemetry.RegistryFrom(ctx).Gauge(MetricFilesReparsed).Set(0)
		return prev, nil
	}
	var res *Result
	if prev == nil && a.snapDir != "" {
		res = a.snapshotLoad(ctx, name, key)
	}
	if res == nil {
		if res, err = a.analyzeInputs(ctx, name, inputs, prev); err != nil {
			return res, err
		}
		res.InputKey = key
		if a.snapDir != "" {
			a.snapshotStore(ctx, name, res, inputs)
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// AnalyzeConfigsResult is AnalyzeConfigs packaged as a single swappable
// Result.
func (a *Analyzer) AnalyzeConfigsResult(ctx context.Context, name string, configs map[string]string) (*Result, error) {
	start := time.Now()
	names := make([]string, 0, len(configs))
	for fn := range configs {
		names = append(names, fn)
	}
	sort.Strings(names)
	inputs, key, err := a.readHash(ctx, names, func(fn string) (string, error) { return configs[fn], nil })
	if err != nil {
		return nil, err
	}
	res, err := a.analyzeInputs(ctx, name, inputs, nil)
	if err != nil {
		return res, err
	}
	res.InputKey = key
	res.Elapsed = time.Since(start)
	return res, nil
}

// AnalyzeDir parses every regular file in dir as a router configuration
// and extracts the network's routing design, naming the network after
// the directory's base name. The returned diagnostics are warnings about
// individual malformed lines; they do not prevent analysis.
//
// Every file is read and content-hashed on every call, on the analyzer's
// worker pool, under a "read_hash" span. With a snapshot directory
// attached (WithSnapshotDir), an input key that matches the network's
// snapshot skips the parse and restores the design from it.
func (a *Analyzer) AnalyzeDir(ctx context.Context, dir string) (*Design, []Diagnostic, error) {
	return unpack(a.AnalyzeDirResult(ctx, filepath.Base(filepath.Clean(dir)), dir, nil))
}

// AnalyzeConfigs parses an in-memory set of configurations (hostname or
// file name -> text) and analyzes the network. Files are distributed
// over the analyzer's worker pool, which first keys them under a
// "read_hash" span; a "parse" span then wraps the stage with one
// "parse-worker" child per worker and one "parse-file" child per
// configuration. Cancelling ctx stops the workers: no new file is picked
// up and the call returns ctx's error alongside the (sorted) diagnostics
// of the files that had already parsed, so interrupted runs can still
// report partial findings.
func (a *Analyzer) AnalyzeConfigs(ctx context.Context, name string, configs map[string]string) (*Design, []Diagnostic, error) {
	return unpack(a.AnalyzeConfigsResult(ctx, name, configs))
}

// unpack splits a Result into AnalyzeDir's and AnalyzeConfigs' returns.
func unpack(res *Result, err error) (*Design, []Diagnostic, error) {
	if res == nil {
		return nil, nil, err
	}
	return res.Design, res.Diagnostics, err
}
