package core

import (
	"context"
	"time"
)

// Result bundles one complete analysis outcome: the design plus the parse
// diagnostics and the skipped-file list already extracted from them. It
// exists for callers that hold analyses and swap them atomically — the
// serve daemon keeps its "last-good design" as a *Result — so the swap is
// one pointer store instead of three coordinated fields.
type Result struct {
	Design      *Design
	Diagnostics []Diagnostic
	// Skipped names the files a lenient analysis dropped, sorted
	// (SkippedFiles of Diagnostics, precomputed).
	Skipped []string
	// Elapsed is the wall-clock analysis duration.
	Elapsed time.Duration
	// SnapshotKey is the content address of the input signature set —
	// non-empty only for AnalyzeDirResult on an analyzer with a snapshot
	// directory. Two results of the same network with equal keys are
	// analyses of byte-identical content, which is what lets a server
	// keep its warm generation on a no-change reload.
	SnapshotKey string
	// FromSnapshot reports whether the design was restored from the
	// network's snapshot file rather than parsed from configuration
	// text.
	FromSnapshot bool
}

// AnalyzeDirResult is AnalyzeDir packaged as a single swappable Result,
// with the network named name rather than after dir: a server analyzing
// one network from successive directories (a push's staging directory,
// then its promoted generation) keeps one design name and one snapshot
// file.
func (a *Analyzer) AnalyzeDirResult(ctx context.Context, name, dir string) (*Result, error) {
	start := time.Now()
	d, diags, snapKey, fromSnap, err := a.analyzeDir(ctx, name, dir)
	if err != nil {
		return nil, err
	}
	return &Result{
		Design: d, Diagnostics: diags, Skipped: SkippedFiles(diags), Elapsed: time.Since(start),
		SnapshotKey: snapKey, FromSnapshot: fromSnap,
	}, nil
}

// AnalyzeConfigsResult is AnalyzeConfigs packaged as a single swappable
// Result.
func (a *Analyzer) AnalyzeConfigsResult(ctx context.Context, name string, configs map[string]string) (*Result, error) {
	start := time.Now()
	d, diags, err := a.AnalyzeConfigs(ctx, name, configs)
	if err != nil {
		return nil, err
	}
	return &Result{Design: d, Diagnostics: diags, Skipped: SkippedFiles(diags), Elapsed: time.Since(start)}, nil
}
