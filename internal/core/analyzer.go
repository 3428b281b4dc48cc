package core

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"routinglens/internal/addrspace"
	"routinglens/internal/ciscoparse"
	"routinglens/internal/classify"
	"routinglens/internal/devmodel"
	"routinglens/internal/diag"
	"routinglens/internal/fanout"
	"routinglens/internal/faultinject"
	"routinglens/internal/filters"
	"routinglens/internal/instance"
	"routinglens/internal/junosparse"
	"routinglens/internal/parsecache"
	"routinglens/internal/procgraph"
	"routinglens/internal/snapshot"
	"routinglens/internal/telemetry"
	"routinglens/internal/topology"
)

// Fault-injection sites of a WithCache analyzer's cache path. Both
// degrade rather than fail: an injected (or real) cache error or panic on
// load is treated as a miss and the file is re-parsed; on store the
// result is simply not cached. Either way the analysis output is
// byte-identical to an uncached run — the cache can be poisoned, never
// the result.
const (
	SiteCacheLoad  = "parsecache.load"
	SiteCacheStore = "parsecache.store"
)

// Dialect hints accepted by WithDialectHint.
const (
	// DialectAuto sniffs each file: brace-structured configurations go to
	// the JunOS front end, everything else to the Cisco IOS parser.
	DialectAuto = "auto"
	// DialectIOS forces every file through the Cisco IOS parser.
	DialectIOS = "ios"
	// DialectJunOS forces every file through the JunOS parser.
	DialectJunOS = "junos"
)

// Analyzer runs the extraction pipeline with a fixed configuration. It is
// the single entry point behind the public routinglens API: build one
// with NewAnalyzer, then call AnalyzeDir, AnalyzeConfigs, or Analyze any
// number of times, from any number of goroutines. It holds no state
// between calls: a later analysis reuses the previous Result its caller
// hands back to AnalyzeDirResult, and on a cold start the snapshot
// directory, both addressed by file content.
//
// Regardless of parallelism the output is deterministic: devices appear
// in sorted file-name order, diagnostics are sorted by (file, line,
// severity, message), and every Design field is identical to what a
// sequential run produces.
type Analyzer struct {
	parallelism int    // 0 => GOMAXPROCS
	dialect     string // "", "auto", "ios", or "junos"
	failFast    bool   // abort on the first unparseable file
	logger      *slog.Logger
	cache       *parsecache.Cache
	cacheOrigin string // cross-origin accounting name on a shared cache
	snapDir     string // analyzed-design snapshot directory, "" disables
	faults      *faultinject.Injector
}

// AnalyzerOption configures an Analyzer.
type AnalyzerOption func(*Analyzer)

// WithParallelism bounds the worker pool used for per-file reading,
// hashing and parsing and for the independent analysis stages. n <= 0
// means runtime.GOMAXPROCS(0); n == 1 runs fully sequentially.
func WithParallelism(n int) AnalyzerOption {
	return func(a *Analyzer) { a.parallelism = n }
}

// WithLogger routes the analyzer's structured logs to l instead of the
// process-wide telemetry logger.
func WithLogger(l *slog.Logger) AnalyzerOption {
	return func(a *Analyzer) { a.logger = l }
}

// WithDialectHint fixes the configuration dialect instead of sniffing
// each file: DialectIOS, DialectJunOS, or DialectAuto (the default).
// An unknown hint surfaces as an error from the Analyze* calls.
func WithDialectHint(d string) AnalyzerOption {
	return func(a *Analyzer) { a.dialect = d }
}

// WithFailFast controls what happens when one configuration file fails
// to parse entirely (I/O error, unbalanced JunOS braces, ...). The
// default is lenient: the file is skipped, the failure surfaces as a
// severity-error Diagnostic plus the routinglens_files_skipped_total
// counter, and the network analysis continues with the remaining
// devices — the paper's pipeline survived 8,035 messy production dumps
// exactly this way. WithFailFast(true) restores abort-on-first-error
// for callers that prefer a hard failure over a partial design.
func WithFailFast(ff bool) AnalyzerOption {
	return func(a *Analyzer) { a.failFast = ff }
}

// WithCache attaches an incremental parse cache: per-file parse results
// are memoized under (dialect, file name, SHA-256 of normalized
// content), so a re-analysis after editing one file re-parses only that
// file. The cache may be shared between analyzers and across calls from
// any number of goroutines. Caching never changes the output: a hit
// replays the exact parse result (device and diagnostics) the file
// would produce fresh, and the final diagnostics ordering is the same
// sorted order as always. Parse failures are never cached. A nil cache
// is valid and disables memoization.
// It stays, with WithCacheOrigin and the parsecache.* fault sites, only
// for the benchmark's layer replay (perfbench/layers); make tier1 fails
// if anything else calls it. Analyses reuse the previous Result instead.
func WithCache(c *parsecache.Cache) AnalyzerOption {
	return func(a *Analyzer) { a.cache = c }
}

// WithCacheOrigin names this analyzer's traffic on a shared parse cache
// (typically the network being analyzed). The origin changes nothing
// about correctness — keys stay (dialect, name, content hash) — it only
// feeds the cache's cross-origin accounting. The default (empty) origin
// opts out of it. It stays only for the benchmark's layer replay.
func WithCacheOrigin(origin string) AnalyzerOption {
	return func(a *Analyzer) { a.cacheOrigin = origin }
}

// WithSnapshotDir attaches an analyzed-design snapshot directory. An
// analysis with no previous Result (a cold start) first computes the
// directory's input key and tries to restore the analysis from the
// network's `<name>.rlsnap` file; on a hit the design is rebuilt from the
// snapshotted device tree in milliseconds, with the parse table a later
// reload reuses. On a miss — or on any corrupt, truncated, or
// version-skewed snapshot, which is refused and counted in
// routinglens_snapshot_invalid_total — the full analysis runs. Every
// analysis that parses refreshes the snapshot. Either way the output is
// byte-identical to an un-snapshotted run: slower, never wrong. Empty
// disables.
func WithSnapshotDir(dir string) AnalyzerOption {
	return func(a *Analyzer) { a.snapDir = dir }
}

// WithFaults arms the analyzer's fault-injection sites (SiteCacheLoad,
// SiteCacheStore, SiteSnapshotLoad, SiteSnapshotStore) for testing. A
// nil injector — the default — injects nothing.
func WithFaults(inj *faultinject.Injector) AnalyzerOption {
	return func(a *Analyzer) { a.faults = inj }
}

// NewAnalyzer builds an Analyzer from functional options.
func NewAnalyzer(opts ...AnalyzerOption) *Analyzer {
	a := &Analyzer{}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Parallelism returns the resolved worker-pool size (always >= 1).
func (a *Analyzer) Parallelism() int {
	if a.parallelism > 0 {
		return a.parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (a *Analyzer) log() *slog.Logger {
	if a.logger != nil {
		return a.logger
	}
	return telemetry.Logger()
}

func (a *Analyzer) checkDialect() error {
	switch a.dialect {
	case "", DialectAuto, DialectIOS, DialectJunOS:
		return nil
	}
	return fmt.Errorf("core: unknown dialect hint %q (want %s, %s, or %s)",
		a.dialect, DialectAuto, DialectIOS, DialectJunOS)
}

// resolveDialect decides which front end a file goes to: the forced
// hint, or a per-file sniff under DialectAuto. It is a pure function of
// (hint, content), which is what lets a file key carry the resolved
// dialect instead of the hint — an auto-sniffed IOS file and a
// forced-IOS file take the same parse path, so they may share a parse.
func (a *Analyzer) resolveDialect(text string) string {
	switch a.dialect {
	case DialectJunOS:
		return DialectJunOS
	case DialectIOS:
		return DialectIOS
	default:
		if junosparse.LooksLikeJunOS(text) {
			return DialectJunOS
		}
		return DialectIOS
	}
}

// parseFile dispatches one configuration to the dialect front end chosen
// by the hint (or sniffed per file under DialectAuto) and reports which
// dialect parsed it.
func (a *Analyzer) parseFile(name, text string) (*devmodel.Device, []Diagnostic, string, error) {
	if a.resolveDialect(text) == DialectJunOS {
		res, err := junosparse.Parse(name, strings.NewReader(text))
		if err != nil {
			return nil, nil, DialectJunOS, err
		}
		return res.Device, fromJunos(res.Diagnostics), DialectJunOS, nil
	}
	res, err := ciscoparse.Parse(name, strings.NewReader(text))
	if err != nil {
		return nil, nil, DialectIOS, err
	}
	return res.Device, fromCisco(res.Diagnostics), DialectIOS, nil
}

// readDir lists dir's regular files, in name order, and reads and keys
// them with readHash.
func (a *Analyzer) readDir(ctx context.Context, dir string) ([]fileInput, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	return a.readHash(ctx, names, func(name string) (string, error) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		return string(data), err
	})
}

// fileInput is one configuration handed to the parse stage: its name,
// its text, and its file key.
type fileInput struct {
	name string
	text string
	key  parsecache.Key
}

// readHash is the read_hash layer, timed by a span of that name. On the
// worker pool it builds one parse input per name, which must be sorted:
// its text, supplied by text, and its file key, what a Result's parse
// table is keyed on. Each worker fills the slots of the names it takes,
// so the inputs come back in name order at any parallelism. It returns
// them with their input key, or the error of the first name, in name
// order, whose text could not be supplied, as a sequential loop would.
func (a *Analyzer) readHash(ctx context.Context, names []string, text func(name string) (string, error)) ([]fileInput, string, error) {
	_, span := telemetry.StartSpan(ctx, "read_hash")
	defer span.End()
	inputs := make([]fileInput, len(names))
	errs := make([]error, len(names))
	fanout.Each(len(names), a.workers(len(names)), func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			s, err := text(names[i])
			if err != nil {
				errs[i] = err
				continue
			}
			inputs[i] = fileInput{name: names[i], text: s, key: parsecache.KeyFor(a.resolveDialect(s), names[i], s)}
		}
	})
	for _, err := range errs {
		if err != nil {
			span.Fail(err)
			return nil, "", err
		}
	}
	return inputs, snapshot.Key(AnalysisVersion, fileSigs(inputs)), nil
}

// workers sizes the worker pool for n files: Parallelism, capped at n.
func (a *Analyzer) workers(n int) int {
	w := a.Parallelism()
	if n > 0 && w > n {
		return n
	}
	return w
}

// fileSigs lists the inputs' snapshot signatures, which Result.InputKey
// hashes.
func fileSigs(inputs []fileInput) []snapshot.FileSig {
	fsigs := make([]snapshot.FileSig, len(inputs))
	for i, in := range inputs {
		fsigs[i] = snapshot.FileSig{Dialect: in.key.Dialect, Name: in.key.Name, Sum: in.key.Sum, Size: int64(len(in.text))}
	}
	return fsigs
}

// parsed is the outcome of one file parse, merged in input order after
// the worker pool drains.
type parsed struct {
	cacheEntry
	dur    time.Duration
	err    error
	cached bool // taken from the previous Result or the parse cache, not parsed
}

// cacheEntry is one successful parse, as a Result's parse table (and a
// WithCache parse cache) keeps it. Everything in it is immutable after
// the parse: the pipeline stages never mutate a Device, and the merge
// loop copies diagnostics out by value, so replaying the same entry into
// any number of later analyses is safe.
type cacheEntry struct {
	dev     *devmodel.Device
	diags   []Diagnostic
	dialect string
}

// analyzeInputs is the shared parse+analyze engine under AnalyzeDirResult
// and AnalyzeConfigsResult. It fans the parses of inputs, which come in
// name order from readHash, out over the worker pool and merges them in
// that order. A file whose key is in prev's parse table is taken from
// there instead of parsed. On a parse error (cancellation, or fail-fast)
// the Result holds only the diagnostics of the files that parsed.
func (a *Analyzer) analyzeInputs(ctx context.Context, name string, inputs []fileInput, prev *Result) (*Result, error) {
	if err := a.checkDialect(); err != nil {
		return nil, err
	}
	var reuse map[parsecache.Key]cacheEntry
	if prev != nil {
		reuse = prev.parses
	}

	reg := telemetry.RegistryFrom(ctx)
	registerHelp(reg)
	log := a.log().With("network", name)
	workers := a.workers(len(inputs))
	reg.Gauge(MetricParallelism).Set(float64(workers))

	pctx, parseSpan := telemetry.StartSpan(ctx, "parse")
	results := make([]parsed, len(inputs))
	// A worker checks failed before it takes an index, so every index it
	// takes is parsed: under fail-fast, all files before the first failing
	// one by name are parsed, and the merge reports that one at any -j.
	var failed atomic.Bool
	fanout.Each(len(inputs), workers, func(next func() (int, bool)) {
		wctx, wspan := telemetry.StartSpan(pctx, "parse-worker")
		defer wspan.End()
		for !failed.Load() {
			i, ok := next()
			if !ok {
				return
			}
			if err := ctx.Err(); err != nil {
				wspan.Fail(err)
				return
			}
			results[i] = a.parseInput(wctx, inputs[i], reuse)
			if results[i].err != nil && a.failFast {
				failed.Store(true)
			}
		}
	})
	if err := ctx.Err(); err != nil {
		parseSpan.Fail(err)
		parseSpan.End()
		return &Result{Diagnostics: partialDiags(results)}, err
	}

	// Merge in input order so worker scheduling never shows in the output.
	n := &devmodel.Network{Name: name}
	parses := make(map[parsecache.Key]cacheEntry, len(inputs))
	var diags []Diagnostic
	var parsedLines int64
	var cacheHits, reparsed int
	for _, r := range results {
		switch {
		case r.cached:
			cacheHits++
		case r.err != nil || r.dev != nil: // actually parsed (fail-fast stubs are neither)
			reparsed++
		}
	}
	reg.Counter(MetricCacheHits).Add(int64(cacheHits))
	reg.Counter(MetricCacheMisses).Add(int64(reparsed))
	if a.cache != nil {
		reg.Gauge(MetricCacheEntries).Set(float64(a.cache.Len()))
	}
	// How many files this run had to parse fresh — the incremental-reload
	// signal: 881 on a cold net5 load, 1 after a one-file edit.
	reg.Gauge(MetricFilesReparsed).Set(float64(reparsed))
	for i, r := range results {
		if r.err != nil {
			if a.failFast {
				err := fmt.Errorf("core: parsing %s: %w", inputs[i].name, r.err)
				parseSpan.Fail(err)
				parseSpan.End()
				sortDiagnostics(diags)
				return &Result{Diagnostics: diags}, err
			}
			// Lenient (the default): the file is dropped from the network,
			// the failure becomes a severity-error diagnostic, and analysis
			// continues with whatever parsed. Deterministic at any -j: the
			// diagnostic is emitted here, in sorted input order.
			reg.Counter(MetricFilesSkipped).Inc()
			log.Warn("skipping unparseable configuration",
				"file", inputs[i].name, "dialect", r.dialect, "error", r.err)
			diags = append(diags, Diagnostic{
				File:     inputs[i].name,
				Severity: diag.SevError,
				Dialect:  r.dialect,
				Msg:      skippedPrefix + r.err.Error(),
			})
			continue
		}
		if r.dev == nil { // not taken: a fail-fast run stopped before it
			continue
		}
		if !r.cached {
			reg.Counter(MetricDevicesParsed, telemetry.L("dialect", r.dialect)).Inc()
			reg.Counter(MetricConfigLines).Add(int64(r.dev.RawLines))
			parsedLines += int64(r.dev.RawLines)
			for _, d := range r.diags {
				reg.Counter(MetricDiagnostics, telemetry.L("severity", d.Severity.String())).Inc()
			}
			log.Debug("parsed configuration",
				"file", inputs[i].name, "dialect", r.dialect, "lines", r.dev.RawLines,
				"diagnostics", len(r.diags), "duration", r.dur)
		}
		n.Devices = append(n.Devices, r.dev)
		parses[inputs[i].key] = r.cacheEntry
		diags = append(diags, r.diags...)
	}
	sortDiagnostics(diags)
	parseDur := parseSpan.End()
	if secs := parseDur.Seconds(); secs > 0 {
		reg.Gauge(MetricParseLinesRate).Set(float64(parsedLines) / secs)
	}
	log.Info("parsed network",
		"files", len(inputs), "lines", parsedLines, "workers", workers,
		"cache_hits", cacheHits, "reparsed", reparsed,
		"diagnostics", len(diags), "duration", parseDur.Round(time.Microsecond))
	return &Result{Design: a.Analyze(ctx, n), Diagnostics: diags, Skipped: SkippedFiles(diags), FilesParsed: reparsed, parses: parses}, nil
}

// partialDiags salvages the diagnostics of whatever files finished
// parsing before a cancellation, sorted — the "partial diagnostics" a
// CLI can still print after SIGINT or a -timeout deadline.
func partialDiags(results []parsed) []Diagnostic {
	var diags []Diagnostic
	for _, r := range results {
		if r.err == nil && r.dev != nil {
			diags = append(diags, r.diags...)
		}
	}
	sortDiagnostics(diags)
	return diags
}

// parseInput parses one file under a "parse-file" span. A file whose key
// is in reuse, the previous Result's parse table, is taken from there;
// with a parse cache attached, a cached entry is replayed.
func (a *Analyzer) parseInput(ctx context.Context, in fileInput, reuse map[parsecache.Key]cacheEntry) parsed {
	if e, ok := reuse[in.key]; ok {
		return parsed{cacheEntry: e, cached: true}
	}
	_, fileSpan := telemetry.StartSpan(ctx, "parse-file")
	if a.cache != nil {
		if p, ok := a.cacheLoad(ctx, in.key); ok {
			p.dur = fileSpan.End()
			return p
		}
	}
	dev, ds, dialect, err := a.parseFile(in.name, in.text)
	e := cacheEntry{dev: dev, diags: ds, dialect: dialect}
	if err != nil {
		fileSpan.Fail(err)
	} else if a.cache != nil {
		a.cacheStore(ctx, in.key, &e, int64(len(in.text)))
	}
	return parsed{cacheEntry: e, dur: fileSpan.End(), err: err}
}

// cacheLoad looks one file up in the parse cache. It can only improve
// on a fresh parse, never corrupt one: an injected or real error is a
// miss, and even a panicking cache degrades to a re-parse.
func (a *Analyzer) cacheLoad(ctx context.Context, key parsecache.Key) (p parsed, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			a.log().Warn("parse cache load panicked; re-parsing", "file", key.Name, "panic", fmt.Sprint(r))
			p, ok = parsed{}, false
		}
	}()
	if err := a.faults.Fire(ctx, SiteCacheLoad); err != nil {
		return parsed{}, false
	}
	v, hit := a.cache.GetFrom(key, a.cacheOrigin)
	if !hit {
		return parsed{}, false
	}
	e, isEntry := v.(*cacheEntry)
	if !isEntry { // a poisoned value degrades to a re-parse
		return parsed{}, false
	}
	return parsed{cacheEntry: *e, cached: true}, true
}

// cacheStore writes one successful parse into the cache; failures (or
// injected faults) just skip the store.
func (a *Analyzer) cacheStore(ctx context.Context, key parsecache.Key, e *cacheEntry, cost int64) {
	defer func() {
		if r := recover(); r != nil {
			a.log().Warn("parse cache store panicked; result not cached", "file", key.Name, "panic", fmt.Sprint(r))
		}
	}()
	if err := a.faults.Fire(ctx, SiteCacheStore); err != nil {
		return
	}
	if evicted := a.cache.PutFrom(key, e, cost, a.cacheOrigin); evicted > 0 {
		telemetry.RegistryFrom(ctx).Counter(MetricCacheEvictions).Add(int64(evicted))
	}
}

// Analyze runs the full extraction pipeline over a parsed network,
// emitting one telemetry span per stage. With parallelism > 1 the
// independent stages run concurrently: topology is built first, then the
// procgraph -> instance -> classify chain, the address-space discovery,
// and the filter analysis proceed in parallel. Each stage writes a
// distinct Design field, so the result is identical to a sequential run.
func (a *Analyzer) Analyze(ctx context.Context, n *devmodel.Network) *Design {
	ctx, root := telemetry.StartSpan(ctx, "analyze")
	defer root.End()
	log := a.log().With("network", n.Name)
	reg := telemetry.RegistryFrom(ctx)

	stage := func(name string, f func()) {
		_, sp := telemetry.StartSpan(ctx, name)
		f()
		d := sp.End()
		log.Debug("stage complete", "stage", name, "duration", d)
	}

	d := &Design{Network: n}
	stage("topology", func() { d.Topology = topology.Build(n) })

	procChain := func() {
		stage("procgraph", func() { d.ProcessGraph = procgraph.Build(n, d.Topology) })
		stage("instance", func() { d.Instances = instance.Compute(d.ProcessGraph) })
		stage("classify", func() { d.Classification = classify.ClassifyDesign(d.Instances) })
	}
	addrStage := func() {
		stage("addrspace", func() {
			d.AddressSpace = addrspace.Discover(addrspace.CollectSubnets(n), addrspace.Options{})
		})
	}
	filterStage := func() {
		stage("filters", func() { d.Filters = filters.Analyze(n, d.Topology) })
	}

	if a.Parallelism() > 1 {
		fanout.GoAll(procChain, addrStage, filterStage)
	} else {
		procChain()
		addrStage()
		filterStage()
	}

	net := telemetry.L("network", n.Name)
	reg.Gauge(MetricInstances, net).Set(float64(len(d.Instances.Instances)))
	reg.Gauge(MetricProcesses, net).Set(float64(len(d.ProcessGraph.Nodes)))
	log.Info("analysis complete",
		"routers", len(n.Devices),
		"instances", len(d.Instances.Instances),
		"classification", d.Classification.String())
	return d
}
