// Package serve is the resident, fault-tolerant query daemon behind
// cmd/rlensd: it analyzes one or many configuration directories, keeps
// each network's result behind an atomically swappable "last-good
// design" pointer, and answers pathway/reachability/what-if/summary
// queries over HTTP at /v1/nets/<net>/.... A design generation (State)
// is one immutable value built whole before it is published: its
// reachability and what-if analyses included.
//
// The robustness properties are the point of the package:
//
//   - A panicking query handler returns 500 and increments
//     routinglens_panics_recovered_total; it never kills the process.
//   - Every query runs under a bounded per-network concurrency limiter
//     that sheds load with 429 + Retry-After instead of queueing
//     unboundedly, and every query the cache cannot answer computes
//     under a per-request timeout.
//   - Every change of what a network serves — a reload (POST
//     /v1/nets/<net>/reload or SIGHUP), a watcher poll, a config push —
//     is one transaction: attempts, retried with exponential backoff,
//     each build a candidate generation (a push's promotion included)
//     inside one panic boundary, and one commit that cannot fail then
//     publishes the candidate and records the outcome. If every attempt
//     fails that network keeps serving its last-good design and only its
//     readiness degrades. Networks are isolated: a failing or slow
//     reload of one never blocks queries against another.
//   - Analysis attempts take a slot of a bounded fleet-wide semaphore,
//     so a SIGHUP against a large corpus re-analyzes a few networks at a
//     time instead of all at once.
//   - Shutdown (SIGTERM/SIGINT) drains in-flight requests under a
//     deadline before exiting.
//
// Every one of those behaviors is exercised in CI through the
// internal/faultinject hooks at the analyzer and handler boundaries.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"routinglens/internal/core"
	"routinglens/internal/designdiff"
	"routinglens/internal/events"
	"routinglens/internal/faultinject"
	"routinglens/internal/ingest"
	"routinglens/internal/netaddr"
	"routinglens/internal/reach"
	"routinglens/internal/simroute"
	"routinglens/internal/telemetry"
	"routinglens/internal/whatif"
)

// Serving metrics, alongside telemetry.MetricHTTPRequests/-Latency.
const (
	// MetricShed counts requests rejected 429 by a network's concurrency
	// limiter, by net.
	MetricShed = "routinglens_http_shed_total"
	// MetricTimeouts counts requests cut off 504 by the per-request deadline.
	MetricTimeouts = "routinglens_http_timeouts_total"
	// MetricPanicsRecovered counts handler panics turned into 500s.
	MetricPanicsRecovered = "routinglens_panics_recovered_total"
	// MetricReloads counts design (re)loads by net and result
	// (ok | error | unchanged | rejected). "rejected" is admission
	// control refusing a cleanly analyzed candidate; "error" is the
	// analysis itself failing.
	MetricReloads = "routinglens_reloads_total"
	// MetricDesignSeq is the sequence number of the design a network is
	// serving, by net.
	MetricDesignSeq = "routinglens_design_seq"
	// MetricInFlight is the number of queries currently holding one of a
	// network's concurrency slots, by net.
	MetricInFlight = "routinglens_http_in_flight"
	// MetricSlowQueries counts requests over the slow-query threshold.
	MetricSlowQueries = "routinglens_slow_queries_total"
	// MetricNetReady is per-network readiness: 1 when the network has a
	// design and its most recent (re)load succeeded, 0 otherwise.
	MetricNetReady = "routinglens_net_ready"
	// MetricNetLatency is per-network request latency, by net and endpoint.
	MetricNetLatency = "routinglens_net_request_seconds"
	// MetricPrefixesSimulated is how many prefixes the simulation of a
	// network's most recently published generation moved, by net: all of
	// them on a first load, and after an edit only the prefixes whose
	// origination changed, unless the edit changed how routes flow.
	MetricPrefixesSimulated = "routinglens_reload_prefixes_simulated"
	// MetricSimRounds is how many propagation rounds the simulation of a
	// network's most recently published generation took, by net. A run
	// that reused the replaced generation's fixpoint counts only the
	// rounds of the prefixes it moved.
	MetricSimRounds = "routinglens_reload_sim_rounds"
)

// Fault-injection sites the daemon exposes. Handler sites are
// "handler.<endpoint>" (e.g. "handler.pathway"), fired before the
// handler runs — so only on a query the cache could not answer, since
// a cache hit runs no handler. SiteAnalyze fires at the analyzer
// boundary of every load and reload, and "analyze.<net>" fires
// alongside it so a test can fail one network's reloads while the rest
// of the fleet keeps loading.
const SiteAnalyze = "analyze"

// NetSource declares one served network: its name (the {net} path
// segment) and where its design comes from — a configuration directory,
// or a Load hook that replaces directory analysis entirely.
type NetSource struct {
	Name string
	Dir  string
	Load func(ctx context.Context) (*core.Result, error)
}

// Config assembles a Server. The zero value of every optional field has
// a usable default; one design source is required — Nets or CorpusDir.
type Config struct {
	// CorpusDir is a corpus root — one subdirectory per network, one
	// configuration file per router, the layout `cmd/netgen -out`
	// writes. Every subdirectory becomes a served network named after
	// it.
	CorpusDir string
	// Nets explicitly enumerates the served networks; takes precedence
	// over CorpusDir.
	Nets []NetSource
	// AnalyzerOptions configure each per-network analyzer.
	AnalyzerOptions []core.AnalyzerOption
	// SnapshotDir, when non-empty, holds one analyzed-design snapshot
	// per network (`<net>.rlsnap`): a network's first load restores from
	// it in milliseconds instead of re-analyzing, and every reload that
	// parses refreshes it. Reloads never read it: they reuse the serving
	// generation.
	SnapshotDir string
	// ReloadWorkers bounds concurrently running analysis attempts across
	// the fleet (default 2): SIGHUP or startup against a large corpus
	// re-analyzes a few networks at a time.
	ReloadWorkers int
	// RequestTimeout bounds the latency of each query that computes its
	// answer (default 10s); a cache hit replays without it.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently executing queries per network;
	// excess load is shed with 429 (default 64).
	MaxInFlight int
	// ReloadRetries is how many times a failed (re)load is retried with
	// exponential backoff before giving up; 0 means no retry (rlensd's
	// -reload-retries flag defaults to 2).
	ReloadRetries int
	// ReloadBackoff is the first retry's backoff, doubling per attempt
	// (default 250ms).
	ReloadBackoff time.Duration
	// Admission, when non-nil, gates every reload between analysis and
	// generation swap: a candidate design that trips a guardrail is
	// quarantined (GET /v1/nets/{net}/quarantine) while the last-good
	// generation keeps serving. Nil disables the gate.
	Admission *AdmissionPolicy
	// IngestDir roots the pushed-configuration generation chains (one
	// subdirectory per network). Empty means a process-lifetime temp
	// dir created on the first push.
	IngestDir string
	// IngestRetain is how many displaced pushed-config generations each
	// network's chain keeps on disk as rollback targets; generations
	// falling off the chain are pruned. 0 means the default (1, the
	// previous-only behavior).
	IngestRetain int
	// WatchInterval, when positive, runs a config-source watcher per
	// directory-backed network: the directory's stat signature is
	// polled on this jittered interval and a change triggers a reload
	// through the usual retry/backoff/admission machinery. 0 disables
	// watching.
	WatchInterval time.Duration
	// WatchMaxBackoff caps a failing watcher's exponential poll backoff
	// (default 16×WatchInterval).
	WatchMaxBackoff time.Duration
	// LoadTimeout bounds one analysis attempt; 0 means unbounded.
	LoadTimeout time.Duration
	// ShutdownGrace is how long Run waits for in-flight requests to
	// drain after SIGTERM/SIGINT (default 10s).
	ShutdownGrace time.Duration
	// QueryCacheSize bounds each network's per-generation query-response
	// LRU in front of the /v1 endpoints. 0 means the default (1024
	// entries); negative disables response caching entirely.
	QueryCacheSize int
	// EventsBuffer bounds each network's design-drift event ring served
	// by its events and watch endpoints. 0 means the default
	// (events.DefaultBufferSize).
	EventsBuffer int
	// SlowQuery is the latency threshold above which a data-plane
	// request is logged and emitted as a query.slow event. 0 means the
	// default (500ms); negative disables slow-query reporting.
	SlowQuery time.Duration
	// WatchHeartbeat is the idle keep-alive interval of the watch SSE
	// streams (default 15s).
	WatchHeartbeat time.Duration
	// TraceStoreSize bounds the in-memory request-trace ring behind
	// /debug/traces. 0 means the default (telemetry.DefaultTraceStoreSize).
	TraceStoreSize int
	// Registry receives the daemon's metrics; nil means telemetry.Default.
	Registry *telemetry.Registry
	// Logger receives the daemon's logs; nil means telemetry.Logger().
	Logger *slog.Logger
	// Faults arms deliberate failures for testing; nil injects nothing.
	// It is only ever set from an explicit flag or a test hook.
	Faults *faultinject.Injector
}

// State is one immutable analysis generation, built whole by a reload
// attempt: the analysis result, its sequence number and load time, and
// the reachability and survivability analyses the reach and whatif
// endpoints answer from. The reload's commit stamps the sequence number
// just before it publishes the generation; nothing changes it after.
// The server swaps whole *State pointers, so a query sees one consistent
// design from first byte to last even while a reload lands.
type State struct {
	Res      *core.Result
	Seq      int64
	LoadedAt time.Time
	Reach    *reach.Analysis
	Whatif   *whatif.Analysis
}

// defaultRoute is the injection every generation's reachability analysis
// runs under: a default route at every external peer, as rdesign -trace
// injects it.
var defaultRoute = []simroute.ExternalRoute{{Prefix: netaddr.PrefixFrom(0, 0)}}

// reloadStatus records the failed reload that degraded a network, for
// readiness probes and logs.
type reloadStatus struct {
	Err string
	At  time.Time
}

// Network is one served network's full generation chain: its analyzer,
// its current design generation, its query cache, its concurrency
// limiter, and its event ring. Every field a reload or a query touches
// lives here, which is the isolation argument — nothing about network A
// failing, reloading, or saturating is visible from network B's chain
// except contention on the bounded fleet-wide reload semaphore.
type Network struct {
	s      *Server
	name   string
	dir    string
	loadFn func(ctx context.Context) (*core.Result, error)
	an     *core.Analyzer

	sem chan struct{}
	qc  *qcache
	cur atomic.Pointer[State]
	// lastFail is the failed reload the network is degraded by: set by a
	// commit that gives up, cleared by one that publishes or keeps a
	// generation. The network is degraded exactly while it is non-nil.
	lastFail atomic.Pointer[reloadStatus]
	reloadMu sync.Mutex
	// lastReloadNS is the wall time of the most recent successful
	// (re)load, for the /v1/nets listing.
	lastReloadNS atomic.Int64

	evts        *events.Buffer
	shedEvents  coalescer
	cacheEvents coalescer

	// inflight, qcEntries and queries are the network's metric handles,
	// resolved once in addNet; queries is keyed by data-plane endpoint.
	inflight, qcEntries *telemetry.Gauge
	queries             map[string]*queryMetrics

	// quarantine retains the most recent admission rejection, cleared
	// by the next successful swap. One atomic pointer: readers see a
	// whole record or none, never a half-written one.
	quarantine atomic.Pointer[QuarantineRecord]
	// store is the network's pushed-config generation chain, created
	// lazily on the first push. Once it exists, its current directory is
	// the one reloads analyze.
	storeMu sync.Mutex
	store   *ingest.Store
}

// Name returns the network's name — its {net} path segment.
func (nw *Network) Name() string { return nw.name }

// State returns the design generation the network currently serves (nil
// before its first successful load).
func (nw *Network) State() *State { return nw.cur.Load() }

// Degraded reports whether the network's most recent (re)load failed;
// it still serves its last-good design while degraded.
func (nw *Network) Degraded() bool { return nw.lastFail.Load() != nil }

// Events exposes the network's event buffer, so embedders (the smoke
// harness, future push-ingestion front ends) can publish into and
// observe the same stream the HTTP surface serves.
func (nw *Network) Events() *events.Buffer { return nw.evts }

// Server is the daemon: a registry of independently reloading networks
// plus the shared HTTP surface. Create with New, load with ReloadAll
// (or per-network Reload), serve with Run (or mount Handler on a server
// of your own).
type Server struct {
	cfg    Config
	reg    *telemetry.Registry
	log    *slog.Logger
	faults *faultinject.Injector

	nets     map[string]*Network
	netNames []string // sorted
	// reloadSem bounds concurrently running analysis attempts across
	// the whole fleet (capacity ReloadWorkers). An attempt holds a slot
	// only while it analyzes, never across a retry backoff.
	reloadSem chan struct{}

	traces *telemetry.TraceStore
	build  telemetry.Build

	// ingestRoot lazily resolves the directory the per-net generation
	// stores live under (cfg.IngestDir, or a process-lifetime temp dir).
	ingestOnce sync.Once
	ingestDir  string
	ingestErr  error
	// watchWG tracks the per-network config-source watchers Run starts.
	watchWG sync.WaitGroup

	handler http.Handler
}

// New builds a Server from cfg, resolving defaults and discovering the
// served networks. It returns an error when the network set itself is
// unusable — no design source, an unreadable corpus root, duplicate or
// malformed network names; a network whose directory merely fails to
// analyze is not an error here (that is Reload's business, and the
// fleet serves around it).
func New(cfg Config) (*Server, error) {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.ReloadRetries < 0 {
		cfg.ReloadRetries = 0
	}
	if cfg.ReloadBackoff <= 0 {
		cfg.ReloadBackoff = 250 * time.Millisecond
	}
	if cfg.ReloadWorkers <= 0 {
		cfg.ReloadWorkers = 2
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = 10 * time.Second
	}
	if cfg.QueryCacheSize == 0 {
		cfg.QueryCacheSize = 1024
	}
	if cfg.SlowQuery == 0 {
		cfg.SlowQuery = 500 * time.Millisecond
	}
	if cfg.WatchHeartbeat <= 0 {
		cfg.WatchHeartbeat = 15 * time.Second
	}
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Registry,
		log:       cfg.Logger,
		faults:    cfg.Faults,
		nets:      make(map[string]*Network),
		reloadSem: make(chan struct{}, cfg.ReloadWorkers),
	}
	if s.reg == nil {
		s.reg = telemetry.Default
	}
	if s.log == nil {
		s.log = telemetry.Logger()
	}
	s.log = s.log.With("component", "serve")
	s.traces = telemetry.NewTraceStore(cfg.TraceStoreSize)
	s.build = telemetry.RegisterBuildInfo(s.reg)
	registerHelp(s.reg)
	// Every analysis sets core's process-wide files-reparsed gauge in
	// this registry; list it before the first one does. Each network's
	// own count is its Result's FilesParsed.
	s.reg.Gauge(core.MetricFilesReparsed)

	srcs, err := cfg.netSources()
	if err != nil {
		return nil, err
	}
	for _, src := range srcs {
		if err := s.addNet(src); err != nil {
			return nil, err
		}
	}
	sort.Strings(s.netNames)
	s.handler = s.buildHandler()
	return s, nil
}

// netSources resolves the configured design sources into the network
// list: explicit Nets, else one network per subdirectory of the corpus
// root, in name order. Plain files at the root (READMEs, manifests) are
// not networks, and a root with no subdirectory is refused: it is always
// a mispointed path.
func (cfg Config) netSources() ([]NetSource, error) {
	if len(cfg.Nets) > 0 {
		return cfg.Nets, nil
	}
	if cfg.CorpusDir == "" {
		return nil, errors.New("serve: no networks configured (set Nets or CorpusDir)")
	}
	entries, err := os.ReadDir(cfg.CorpusDir)
	if err != nil {
		return nil, fmt.Errorf("serve: reading corpus root: %w", err)
	}
	var srcs []NetSource
	for _, e := range entries {
		if e.IsDir() {
			srcs = append(srcs, NetSource{Name: e.Name(), Dir: filepath.Join(cfg.CorpusDir, e.Name())})
		}
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("serve: corpus root %s contains no network directories", cfg.CorpusDir)
	}
	return srcs, nil
}

// validNetName accepts names usable as a single {net} path segment and
// as a metric label value.
func validNetName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	return !strings.ContainsAny(name, "/\\?#%\"' \t\n")
}

// addNet registers one network and builds its analyzer.
func (s *Server) addNet(src NetSource) error {
	if !validNetName(src.Name) {
		return fmt.Errorf("serve: network name %q is not usable as a path segment", src.Name)
	}
	if _, dup := s.nets[src.Name]; dup {
		return fmt.Errorf("serve: duplicate network name %q", src.Name)
	}
	opts := append([]core.AnalyzerOption{}, s.cfg.AnalyzerOptions...)
	if s.cfg.SnapshotDir != "" {
		opts = append(opts, core.WithSnapshotDir(s.cfg.SnapshotDir))
	}
	nw := &Network{
		s:      s,
		name:   src.Name,
		dir:    src.Dir,
		loadFn: src.Load,
		an:     core.NewAnalyzer(opts...),
		sem:    make(chan struct{}, s.cfg.MaxInFlight),
		evts:   events.NewBuffer(s.cfg.EventsBuffer, s.reg, telemetry.L("net", src.Name)),
	}
	if s.cfg.QueryCacheSize > 0 {
		nw.qc = newQCache(s.cfg.QueryCacheSize)
	}
	lnet := telemetry.L("net", src.Name)
	nw.inflight = s.reg.Gauge(MetricInFlight, lnet)
	nw.qcEntries = s.reg.Gauge(MetricQueryCacheEntries, lnet)
	nw.queries = make(map[string]*queryMetrics, len(queryParams))
	for endpoint := range queryParams {
		m := newQueryMetrics(s.reg, endpoint)
		lep := telemetry.L("endpoint", endpoint)
		m.net = s.reg.Histogram(MetricNetLatency, nil, lnet, lep)
		if nw.qc != nil {
			m.hits = s.reg.Counter(MetricQueryCacheHits, lep)
			m.misses = s.reg.Counter(MetricQueryCacheMisses, lep)
		}
		nw.queries[endpoint] = m
	}
	s.nets[src.Name] = nw
	s.netNames = append(s.netNames, src.Name)
	return nil
}

// Net returns one network by name (nil if unknown).
func (s *Server) Net(name string) *Network { return s.nets[name] }

// Nets returns the served network names, sorted.
func (s *Server) Nets() []string { return append([]string(nil), s.netNames...) }

func registerHelp(reg *telemetry.Registry) {
	reg.SetHelp(telemetry.MetricHTTPRequests, "HTTP requests served, by endpoint and status code.")
	reg.SetHelp(telemetry.MetricHTTPLatency, "HTTP request latency, by endpoint.")
	reg.SetHelp(MetricShed, "Requests shed 429 by a network's concurrency limiter, by net.")
	reg.SetHelp(MetricTimeouts, "Requests cut off 504 by the per-request deadline.")
	reg.SetHelp(MetricPanicsRecovered, "Handler panics recovered into 500 responses.")
	reg.SetHelp(MetricReloads, "Design load attempts, by net and result.")
	reg.SetHelp(MetricDesignSeq, "Sequence number of the design generation served, by net.")
	reg.SetHelp(MetricInFlight, "Queries currently holding a concurrency slot, by net.")
	reg.SetHelp(MetricNetReady, "Per-network readiness: 1 serving fresh, 0 empty or degraded.")
	reg.SetHelp(MetricNetLatency, "Request latency, by net and endpoint.")
	reg.SetHelp(MetricPrefixesSimulated, "Prefixes simulated for the most recently published generation; the rest were copied from the one it replaced, by net.")
	reg.SetHelp(MetricSimRounds, "Simulator propagation rounds for the most recently published generation; a reusing run counts only the rounds of the prefixes it moved, by net.")
	reg.SetHelp(MetricQueryCacheHits, "Query responses served from the per-generation cache, by endpoint.")
	reg.SetHelp(MetricQueryCacheMisses, "Queries computed because the per-generation cache had no entry, by endpoint.")
	reg.SetHelp(MetricQueryCacheEvictions, "Query-cache entries evicted by the LRU bound.")
	reg.SetHelp(MetricQueryCacheEntries, "Query-cache resident entries, by net.")
	reg.SetHelp(faultinject.MetricFaultsInjected, "Deliberately injected faults, by site and kind.")
	reg.SetHelp(events.MetricPublished, "Design-drift events published, by net and type.")
	reg.SetHelp(events.MetricDropped, "Events dropped at slow watch subscribers, by net.")
	reg.SetHelp(events.MetricSubscribers, "Live event-stream subscriptions, by net.")
	reg.SetHelp(MetricSlowQueries, "Data-plane requests slower than the slow-query threshold, by endpoint.")
	reg.SetHelp(ingest.MetricPolls, "Config-source watcher polls, by net and result.")
	reg.SetHelp(ingest.MetricWatchSuspended, "Config-source watcher circuit breaker: 1 while suspended, by net.")
	reg.SetHelp(ingest.MetricPushes, "Pushed configuration archives, by net and result.")
	reg.SetHelp(ingest.MetricRollbacks, "Generation rollbacks applied, by net.")
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.handler }

// activeDirPath returns the directory reloads analyze: the generation
// store's current directory once a push has created the store, the
// network's source directory before that.
func (nw *Network) activeDirPath() string {
	if st := nw.peekStore(); st != nil {
		return st.Current()
	}
	return nw.dir
}

// load runs one analysis attempt against dir under a slot of the
// fleet-wide reload semaphore and through the fault-injection boundary.
// The slot is held only for the analysis itself, never across retry
// backoff sleeps. prev is the serving generation's Result, or nil.
func (nw *Network) load(ctx context.Context, dir string, prev *core.Result) (*core.Result, error) {
	s := nw.s
	select {
	case s.reloadSem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.reloadSem }()
	ctx = telemetry.WithRegistry(ctx, s.reg)
	if s.cfg.LoadTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.LoadTimeout)
		defer cancel()
	}
	if err := s.faults.Fire(ctx, SiteAnalyze); err != nil {
		return nil, err
	}
	if err := s.faults.Fire(ctx, SiteAnalyze+"."+nw.name); err != nil {
		return nil, err
	}
	if nw.loadFn != nil {
		return nw.loadFn(ctx)
	}
	return nw.an.AnalyzeDirResult(ctx, nw.name, dir, prev)
}

// reloadReq parameterizes one reload: what drove it, whether to bypass
// the admission gate, and, for a config push, the staged archive.
type reloadReq struct {
	force   bool
	trigger string // manual | watch | push
	push    *pushReq
}

// pushReq is a pushed archive extracted into a staging directory of the
// network's generation store; files and bytes annotate config.pushed.
type pushReq struct {
	store   *ingest.Store
	staging string
	files   int
	bytes   int64
}

// candidate is what a successful attempt hands the commit: the
// generation to publish (prev itself when the input is unchanged), its
// delta against prev (nil on a first load), the directory a push
// promoted, and how long the reach and what-if builds took.
type candidate struct {
	st       *State
	delta    *designdiff.Delta
	gen      string
	analyses time.Duration
}

// outcome is what one reload's commit recorded: its result (ok |
// unchanged | rejected | error), the generation serving afterwards, the
// directory a push promoted, and the error of a rejected or failed one.
type outcome struct {
	result string
	st     *State
	gen    string
	err    error
}

// Reload re-analyzes the network's configuration and swaps the new
// design in atomically. A failed attempt — an analysis error, or a panic
// anywhere before the swap — is retried ReloadRetries times with
// exponential backoff; if every attempt fails, the network keeps
// serving its previous last-good design, marks itself degraded (visible
// on /readyz), and returns the last error. When Config.Admission is
// set, a candidate that analyzed cleanly but trips a guardrail is
// rejected instead (the typed *AdmissionError): the network is NOT
// degraded, the rejection is quarantined, and the last-good generation
// keeps serving. Reloads of one network serialize; different networks
// reload independently, bounded only by the fleet-wide reload semaphore.
// Also the initial load — cmd/rlensd reloads every network once before
// serving.
func (nw *Network) Reload(ctx context.Context) error {
	return nw.reload(ctx, reloadReq{trigger: "manual"}).err
}

// reload is the one transaction every trigger runs: attempts, retried
// with backoff while they fail (a rejection is a verdict a retry would
// not change), then one commit.
func (nw *Network) reload(ctx context.Context, req reloadReq) outcome {
	s := nw.s
	nw.reloadMu.Lock()
	defer nw.reloadMu.Unlock()
	// Only a commit swaps the pointer, and reloadMu serializes reloads,
	// so prev stays the serving generation until this reload commits.
	prev := nw.cur.Load()
	backoff := s.cfg.ReloadBackoff
	var (
		start time.Time
		c     candidate
		err   error
	)
retry:
	for attempt := 0; ; attempt++ {
		start = time.Now()
		c, err = nw.attempt(ctx, req, prev)
		var adm *AdmissionError
		if err == nil || errors.As(err, &adm) {
			break
		}
		// Each failed attempt counts here; the commit counts the rest.
		s.reg.Counter(MetricReloads, telemetry.L("net", nw.name), telemetry.L("result", "error")).Inc()
		if attempt == s.cfg.ReloadRetries || ctx.Err() != nil {
			break
		}
		s.log.Warn("load attempt failed; backing off",
			"net", nw.name, "attempt", attempt+1, "backoff", backoff, "error", err)
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			// Cancelled during the backoff: no further attempt runs.
			t.Stop()
			err = ctx.Err()
			break retry
		}
		backoff *= 2
	}
	return nw.commit(req, prev, c, err, time.Since(start))
}

// attempt turns the reload's input into a candidate generation or an
// error, invisibly to queries: it analyzes the input (a push's staging
// directory, else the active directory) given prev's analysis, keeps prev
// when the analyzer hands that analysis back, diffs against prev, runs
// the admission gate, builds reach and what-if, and last promotes a
// push's staging directory, so nothing can fail after a promotion. Both
// builds reuse prev: the analysis takes every file parse the edit left
// alone, and the reach build copies the fixpoint of every prefix whose
// origination the edit left alone and simulates only the rest. They read
// prev while queries do, and the candidate keeps no reference to prev
// (parsed devices, which never change, are shared). It is the reload's
// one panic boundary: a panic anywhere in it (a fault hook, a parser or
// stage — core re-raises its workers' panics here — the diff, admission,
// reach, what-if or the promotion) is the attempt's error and takes the
// retry path.
func (nw *Network) attempt(ctx context.Context, req reloadReq, prev *State) (c candidate, err error) {
	defer func() {
		if p := recover(); p != nil {
			c, err = candidate{}, fmt.Errorf("reload attempt panicked: %v", p)
		}
	}()
	s := nw.s
	dir := nw.activeDirPath()
	if req.push != nil {
		dir = req.push.staging
	}
	var prevRes *core.Result
	if prev != nil {
		prevRes = prev.Res
	}
	res, err := nw.load(ctx, dir, prevRes)
	if err != nil {
		return c, err
	}
	if prev != nil && res == prev.Res {
		// The input is byte-identical, so the serving generation — with
		// its warm analyses and query cache — already answers it. Keep it;
		// swapping would only rebuild reach and what-if and purge the
		// cache to arrive at the same answers.
		return candidate{st: prev}, nil
	}
	if prev != nil {
		// Admission gate: the candidate analyzed, but is it safe to serve
		// in place of the serving design? A rejection fails the attempt
		// typed; the commit quarantines it without degrading the network.
		diff := res.Design.DiffFrom(prev.Res.Design)
		delta := diff.Delta()
		c.delta = &delta
		if pol := s.cfg.Admission; pol.enabled() && !req.force {
			if reasons, loss, errDiags := pol.evaluate(diff, res); len(reasons) > 0 {
				return candidate{}, &AdmissionError{Reasons: reasons,
					Record: newQuarantineRecord(req.trigger, reasons, loss, errDiags, prev.Seq)}
			}
		}
	}
	built := time.Now()
	var prevReach *reach.Analysis
	if prev != nil {
		prevReach = prev.Reach
	}
	d := res.Design
	c.st = &State{Res: res, Reach: reach.Analyze(d.Instances, d.AddressSpace, defaultRoute, prevReach), Whatif: d.Survivability()}
	c.analyses = time.Since(built)
	if req.push != nil {
		if err := s.faults.Fire(telemetry.WithRegistry(ctx, s.reg), ingest.SitePromote); err != nil {
			return candidate{}, fmt.Errorf("promoting pushed configs: %w", err)
		}
		if c.gen, err = req.push.store.Promote(req.push.staging); err != nil {
			return candidate{}, fmt.Errorf("promoting pushed configs: %w", err)
		}
	}
	return c, nil
}

// commit ends a reload and cannot fail: it publishes what the last
// attempt produced and records the one outcome — ok, unchanged,
// rejected (err is an *AdmissionError) or error — in the quarantine
// record, the degraded state, the counters, the events and the log. A
// new generation gets the seq after prev's (1 on a first load) and is
// swapped in before its events go out, so a watcher reacting to them
// queries the generation announced. An unpromoted staging directory is
// discarded.
func (nw *Network) commit(req reloadReq, prev *State, c candidate, err error, elapsed time.Duration) outcome {
	s := nw.s
	lnet := telemetry.L("net", nw.name)
	if req.push != nil && c.gen == "" {
		req.push.store.Discard(req.push.staging)
	}
	var adm *AdmissionError
	if errors.As(err, &adm) {
		rec := adm.Record
		nw.quarantine.Store(rec)
		s.reg.Counter(MetricReloads, lnet, telemetry.L("result", "rejected")).Inc()
		nw.emit(EvtDesignRejected, rejectedPayload{
			Trigger: rec.Trigger, Reasons: rec.Reasons, Loss: rec.Loss,
			ErrorDiags: rec.ErrorDiags, ServingSeq: rec.ServingSeq,
		})
		s.log.Warn("design rejected by admission control; last-good keeps serving",
			"net", nw.name, "trigger", req.trigger,
			"reasons", strings.Join(rec.Reasons, "; "), "serving_seq", rec.ServingSeq)
		return outcome{result: "rejected", st: prev, err: err}
	}
	if err != nil {
		// Given up: the network degrades, keeping the error for readiness
		// probes, and its last-good design keeps serving.
		nw.lastFail.Store(&reloadStatus{Err: err.Error(), At: time.Now()})
		s.reg.Gauge(MetricNetReady, lnet).Set(0)
		p := reloadFailedPayload{Error: err.Error()}
		if prev != nil {
			p.ServingSeq, p.HaveDesign = prev.Seq, true
		}
		nw.emit(EvtReloadFailed, p)
		s.log.Error("load failed; serving last-good design if any",
			"net", nw.name, "error", err, "have_design", p.HaveDesign)
		return outcome{result: "error", st: prev, err: err}
	}
	st := c.st
	if st != prev {
		st.Seq, st.LoadedAt = 1, time.Now()
		if prev != nil {
			st.Seq = prev.Seq + 1
		}
		nw.cur.Store(st)
		// Every older generation's cached responses are unreachable now
		// (keys embed the seq); purge them rather than waiting for LRU
		// pressure to age them out.
		nw.qc.purge()
		nw.qcEntries.Set(0)
		nw.quarantine.Store(nil)
	}
	recovered := nw.lastFail.Swap(nil) != nil
	nw.lastReloadNS.Store(int64(elapsed))
	s.reg.Gauge(MetricNetReady, lnet).Set(1)
	if st == prev {
		s.reg.Counter(MetricReloads, lnet, telemetry.L("result", "unchanged")).Inc()
		if recovered {
			nw.emit(EvtReadyRecovered, recoveredPayload{Seq: st.Seq})
		}
		s.log.Info("design unchanged; keeping warm generation",
			"net", nw.name, "seq", st.Seq, "elapsed", elapsed.Round(time.Millisecond))
		return outcome{result: "unchanged", st: st}
	}
	s.reg.Counter(MetricReloads, lnet, telemetry.L("result", "ok")).Inc()
	s.reg.Gauge(MetricDesignSeq, lnet).Set(float64(st.Seq))
	s.reg.Gauge(MetricPrefixesSimulated, lnet).Set(float64(st.Reach.Simulated))
	s.reg.Gauge(MetricSimRounds, lnet).Set(float64(st.Reach.Rounds))
	if c.gen != "" {
		nw.emit(EvtConfigPushed, configPushedPayload{
			Generation: filepath.Base(c.gen), Files: req.push.files, Bytes: req.push.bytes,
		})
	}
	nw.emitSwapEvents(prev, st, c.delta)
	if recovered {
		nw.emit(EvtReadyRecovered, recoveredPayload{Seq: st.Seq})
	}
	res := st.Res
	s.log.Info("design loaded",
		"net", nw.name,
		"seq", st.Seq,
		"trigger", req.trigger,
		"network", res.Design.Network.Name,
		"routers", len(res.Design.Network.Devices),
		"instances", len(res.Design.Instances.Instances),
		"skipped_files", len(res.Skipped),
		"files_reparsed", res.FilesParsed,
		"prefixes_simulated", st.Reach.Simulated,
		"sim_rounds", st.Reach.Rounds,
		"prefixes", st.Reach.Sim.Prefixes(),
		"reach_whatif", c.analyses.Round(time.Millisecond),
		"elapsed", res.Elapsed.Round(time.Millisecond))
	return outcome{result: "ok", st: st, gen: c.gen}
}

// ReloadAll (re)loads every network at once and returns the first
// failure by name order; one bad network must not stop the rest of the
// fleet from loading. The reload semaphore bounds how many analyze at a
// time, and a network backing off holds no slot, so one network's
// retries never hold back the others.
func (s *Server) ReloadAll(ctx context.Context) error {
	errs := make([]error, len(s.netNames))
	var wg sync.WaitGroup
	for i, name := range s.netNames {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.nets[name].Reload(ctx)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("net %s: %w", s.netNames[i], err)
		}
	}
	return nil
}

// Run serves on ln until a termination signal or ctx cancellation, then
// shuts down gracefully: in-flight requests get ShutdownGrace to drain
// before the listener is torn down. SIGHUP on sigs triggers a background
// reload of the whole fleet; SIGTERM/SIGINT (and ctx.Done) trigger the
// drain. The caller owns sigs — cmd/rlensd passes an os/signal channel,
// tests pass their own.
func (s *Server) Run(ctx context.Context, ln net.Listener, sigs <-chan os.Signal) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	wctx, wcancel := context.WithCancel(ctx)
	defer func() {
		wcancel()
		s.watchWG.Wait()
	}()
	s.StartWatchers(wctx)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	s.log.Info("serving", "addr", ln.Addr().String(), "nets", len(s.netNames))
	for {
		select {
		case err := <-errCh:
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				s.log.Info("SIGHUP received; reloading every network in the background")
				go func() { _ = s.ReloadAll(context.Background()) }()
				continue
			}
			s.log.Info("termination signal; draining in-flight requests",
				"signal", fmt.Sprint(sig), "grace", s.cfg.ShutdownGrace)
			return s.drain(srv, errCh)
		case <-ctx.Done():
			s.log.Info("context cancelled; draining in-flight requests",
				"grace", s.cfg.ShutdownGrace)
			return s.drain(srv, errCh)
		}
	}
}

// drain gives in-flight requests ShutdownGrace to finish, then closes
// whatever is left.
func (s *Server) drain(srv *http.Server, errCh <-chan error) error {
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-errCh // Serve has returned ErrServerClosed
	if err != nil {
		s.log.Warn("drain deadline exceeded; closing remaining connections", "error", err)
		srv.Close()
		return err
	}
	s.log.Info("drained cleanly")
	return nil
}
