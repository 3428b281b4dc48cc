// Command rlensd is the routinglens daemon: it analyzes one network's
// configuration directory — or a whole corpus of networks — once at
// startup, keeps each extracted design resident behind an atomically
// swappable last-good pointer, and answers design queries over HTTP
// until told to stop.
//
// Usage:
//
//	rlensd -dir path/to/configs [-addr :7311] [flags]  # one network
//	rlensd -corpus path/to/corpus [flags]              # a fleet
//
// A corpus root is one subdirectory per network, one configuration file
// per router — the layout `netgen -out` writes. Every subdirectory
// becomes a served network named after it; -dir serves one network
// named after the directory's base name.
//
// Endpoints (NET is a network name; GET /v1/nets lists them):
//
//	GET  /v1/nets                   fleet discovery: every network, its
//	                                generation, readiness, reload facts,
//	                                and the shared parse-cache counters
//	GET  /v1/nets/NET/summary       design overview (?format=text for the CLI table)
//	GET  /v1/nets/NET/pathway       route pathway graph (?router=NAME[&format=text])
//	GET  /v1/nets/NET/reach         external reachability; ?src=P&dst=P for block-to-block
//	GET  /v1/nets/NET/whatif        survivability / failure analysis ([?format=text])
//	POST /v1/nets/NET/reload        re-analyze one network (SIGHUP reloads all;
//	                                ?force=1 bypasses the admission gate)
//	POST /v1/nets/NET/configs       push a tar.gz of router configs: extracted
//	                                into a staged generation under hard limits,
//	                                analyzed, admission-checked, then swapped in
//	POST /v1/nets/NET/configs/rollback  restore the previous pushed generation
//	                                (the next reload analyzes it)
//	GET  /v1/nets/NET/quarantine    the retained admission-rejection record, if any
//	GET  /v1/nets/NET/events        design-drift event page (?since=CURSOR&limit=N)
//	GET  /v1/nets/NET/watch         live design-drift stream (SSE; resumes via Last-Event-ID)
//	GET  /v1/version                build identity and the number of served networks
//	GET  /healthz                   process liveness (always 200 while up)
//	GET  /readyz                    fleet readiness: 200 while any network serves
//	                                fresh; ?net=NAME probes one network
//	GET  /metrics                   Prometheus text metrics (per-net labels)
//	GET  /debug/traces              recent request traces; /debug/traces/{id} for one
//
// Every per-network path names its network: the pre-fleet
// single-network paths (/v1/summary, /v1/reload, ...) are gone and
// answer 404 not_found like any other unknown path.
//
// Observability: every design-changing reload is diffed against the
// previous generation and published as structured events (one ring per
// network, bounded by -events-buffer) that the events endpoint pages by
// cursor and the watch endpoint streams live with -watch-heartbeat
// keepalives; cursors are scoped per network. Every response carries an
// X-Trace-Id (inbound W3C traceparent honored); only data-plane queries
// are kept in the trace store, so only theirs resolve at
// /debug/traces/{id}. Requests slower than -slow-query are logged,
// counted, and published as query.slow events.
//
// Robustness model: queries run under a bounded per-network
// concurrency limiter (-max-inflight) that sheds overload with 429 +
// Retry-After, and a query the cache cannot answer computes under a
// per-request timeout (-request-timeout); a
// panicking handler returns 500 and never kills the process. A manual
// reload, SIGHUP, a watcher poll and a config push all run one reload
// transaction: a failed attempt — an analysis error, or a panic
// anywhere before the swap, a push's promotion into its generation
// chain included — retries with backoff (-reload-retries,
// -reload-backoff) and, if it still fails, that network keeps serving
// its last-good design with its readiness degraded (a push answers the
// same 500 reload_failed body as a reload) — the rest of the fleet is
// untouched. Every reload ends in one commit that publishes the new
// generation, if any, and records one outcome: ok, unchanged, rejected
// or error. At most -reload-workers analyses run at once across the
// fleet, and a network backing off between attempts holds no slot, so
// SIGHUP against a large corpus loads a few networks at a time and one
// failing network never holds back the rest. SIGTERM/SIGINT drain
// in-flight requests for up to -shutdown-grace before exit. If an
// *initial* analysis fails, even by panicking, the daemon still comes
// up (healthz 200, that network's queries 503) so an operator can fix
// the configs and POST its reload.
//
// Caching: reloads are incremental — one content-addressed parse cache
// (-parse-cache, entries; 0 disables) is shared by every network with
// per-network origin tracking, so identical boilerplate files across
// networks are parsed once (routinglens_parsecache_cross_net_hits
// counts the sharing) and re-parsed only when their normalized content
// changes. Each network's loaded generation fronts its query endpoints
// with a response LRU (-query-cache, entries; negative disables) that a
// reload swap invalidates wholesale. Each reload builds the new
// generation's reachability and what-if analyses before publishing it,
// so no query computes either.
//
// Continuous ingestion: -watch-configs polls every directory-backed
// network's config source on a jittered interval and reloads on change;
// a source that keeps failing circuit-breaks (ingest.suspended event,
// polls continue at a backoff capped by -watch-max-backoff) and resumes
// on the next good signature. Pushed archives land in a per-network
// generation chain under -ingest-dir; the -ingest-retain most recently
// displaced generations are retained for rollback. Every reload —
// manual, watched, or pushed — passes an admission gate before the
// swap: a candidate design that removes more than
// -admit-max-router-loss-pct of the serving routers, falls below
// -admit-min-routers, carries more than -admit-max-error-diags error
// diagnostics, or churns more than -admit-max-compartment-delta routing
// compartments is quarantined (422, design.rejected event) while the
// last-good design keeps serving; ?force=1 overrides per call.
//
// -faults arms the deterministic fault-injection layer (testing only):
// a semicolon-separated rule list like
//
//	-faults 'handler.pathway:panic:count=1;analyze.net3:error'
//
// (see internal/faultinject for the grammar; "analyze.NET" targets one
// network's loads). Faults are never armed unless this flag is given.
//
// Observability flags (-v/-vv, -log-format, -metrics, -pprof, -j,
// -fail-fast, -timeout) behave as in cmd/rdesign, except that the
// daemon keeps span records only for data-plane queries, in its bounded
// /debug/traces store: reload and control-plane stages feed only the
// routinglens_stage_seconds histograms on /metrics, so its -v stage
// table reads "no stages recorded". -timeout bounds each analysis
// attempt, not the daemon's lifetime.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"routinglens/internal/core"
	"routinglens/internal/faultinject"
	"routinglens/internal/parsecache"
	"routinglens/internal/serve"
	"routinglens/internal/telemetry"
)

func main() {
	dir := flag.String("dir", "", "directory of one network's router configuration files")
	corpus := flag.String("corpus", "", "corpus root: one subdirectory per network (overrides -dir)")
	addr := flag.String("addr", ":7311", "listen address")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline; slower queries return 504")
	maxInflight := flag.Int("max-inflight", 64, "per-network concurrent query bound; excess load is shed with 429")
	reloadRetries := flag.Int("reload-retries", 2, "retries (with exponential backoff) before a failed reload gives up")
	reloadBackoff := flag.Duration("reload-backoff", 250*time.Millisecond, "first reload retry backoff; doubles per attempt")
	reloadWorkers := flag.Int("reload-workers", 2, "fleet-wide bound on concurrently running analyses")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "how long SIGTERM/SIGINT waits for in-flight requests to drain")
	parseCache := flag.Int("parse-cache", parsecache.DefaultMaxEntries, "shared parse-cache entry bound; reloads re-parse only changed files (0 disables)")
	queryCache := flag.Int("query-cache", 0, "query-cache entry bound per network per generation (0 uses the default 1024; negative disables)")
	eventsBuffer := flag.Int("events-buffer", 0, "per-network design-drift event ring bound, in events (0 uses the default 1024)")
	slowQuery := flag.Duration("slow-query", 0, "latency threshold for slow-query logging and query.slow events (0 uses the default 500ms; negative disables)")
	watchHeartbeat := flag.Duration("watch-heartbeat", 15*time.Second, "idle keep-alive interval of the watch streams")
	snapshotDir := flag.String("snapshot-dir", "", "directory of analyzed-design snapshots (one per network): cold starts restore from them in milliseconds, no-change reloads keep the warm generation, and every full analysis refreshes them")
	ingestDir := flag.String("ingest-dir", "", "root of the pushed-configuration generation chains, one subdirectory per network (default: a process-lifetime temp dir)")
	watchConfigs := flag.Duration("watch-configs", 0, "poll each network's config directory on this jittered interval and reload on change (0 disables)")
	watchMaxBackoff := flag.Duration("watch-max-backoff", 2*time.Minute, "cap on a failing config watcher's exponential poll backoff")
	admitMaxLoss := flag.Float64("admit-max-router-loss-pct", 50, "reject a reload that removes more than this percentage of the serving design's routers (0 disables)")
	admitMinRouters := flag.Int("admit-min-routers", 1, "reject a reload whose design has fewer routers than this floor (0 disables)")
	admitMaxErrDiags := flag.Int("admit-max-error-diags", -1, "reject a reload whose analysis produced more than this many error-severity diagnostics (negative disables; 0 tolerates none)")
	admitMaxCompartmentDelta := flag.Int("admit-max-compartment-delta", -1, "reject a reload that adds or removes more than this many routing compartments (negative disables; 0 tolerates none)")
	ingestRetain := flag.Int("ingest-retain", 1, "displaced pushed-config generations each network retains on disk as rollback targets")
	faults := flag.String("faults", "", "arm fault injection (testing): 'SITE:KIND[:opts][;...]', e.g. 'analyze.net3:error'")
	tele := telemetry.NewCLI("rlensd")
	tele.RegisterFlags(flag.CommandLine)
	flag.Parse()

	exit := func(code int) {
		if tele.Finish() != nil && code == 0 {
			code = 1
		}
		os.Exit(code)
	}
	if err := tele.Activate(); err != nil {
		fmt.Fprintf(os.Stderr, "rlensd: %v\n", err)
		os.Exit(2)
	}
	if *dir == "" && *corpus == "" {
		fmt.Fprintln(os.Stderr, "rlensd: one of -dir or -corpus is required")
		flag.Usage()
		exit(2)
	}

	var injector *faultinject.Injector
	if *faults != "" {
		rules, err := faultinject.ParseAll(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rlensd: %v\n", err)
			exit(2)
		}
		injector = faultinject.New(0, rules...)
		telemetry.Logger().Warn("fault injection armed — this is a testing mode", "rules", *faults)
	}

	// One parse cache for the whole fleet: serve gives each network's
	// analyzer its own origin, so /v1/nets can report how many parses
	// crossed network boundaries.
	var pc *parsecache.Cache
	if *parseCache > 0 {
		pc = parsecache.New(*parseCache, 0)
	}
	cfg := serve.Config{
		CorpusDir: *corpus,
		AnalyzerOptions: []core.AnalyzerOption{
			core.WithParallelism(tele.Parallelism()),
			core.WithFailFast(tele.FailFast),
			core.WithFaults(injector),
		},
		ParseCache:  pc,
		SnapshotDir: *snapshotDir,
		Admission: &serve.AdmissionPolicy{
			MaxRouterLossPct:    *admitMaxLoss,
			MinRouters:          *admitMinRouters,
			MaxErrorDiags:       *admitMaxErrDiags,
			MaxCompartmentDelta: *admitMaxCompartmentDelta,
		},
		IngestDir:       *ingestDir,
		IngestRetain:    *ingestRetain,
		WatchInterval:   *watchConfigs,
		WatchMaxBackoff: *watchMaxBackoff,
		ReloadWorkers:   *reloadWorkers,
		RequestTimeout:  *reqTimeout,
		MaxInFlight:     *maxInflight,
		ReloadRetries:   *reloadRetries,
		ReloadBackoff:   *reloadBackoff,
		LoadTimeout:     tele.Timeout,
		ShutdownGrace:   *shutdownGrace,
		QueryCacheSize:  *queryCache,
		EventsBuffer:    *eventsBuffer,
		SlowQuery:       *slowQuery,
		WatchHeartbeat:  *watchHeartbeat,
		Faults:          injector,
	}
	if *corpus == "" {
		cfg.Nets = []serve.NetSource{{Name: filepath.Base(filepath.Clean(*dir)), Dir: *dir}}
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlensd: %v\n", err)
		exit(2)
	}

	// A failed initial load is not fatal: the daemon comes up with the
	// failing networks degraded (healthz 200, their readiness 503) so the
	// operator can fix the configuration directories and reload them,
	// while every network that did load serves normally.
	if err := s.ReloadAll(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "rlensd: initial analysis failed (serving degraded): %v\n", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlensd: %v\n", err)
		exit(1)
	}
	source := *corpus
	if source == "" {
		source = *dir
	}
	fmt.Printf("rlensd: serving %d network(s) [%s] from %s on http://%s (GET /v1/nets to discover; /v1/nets/NET/{summary,pathway,reach,whatif,reload,events,watch})\n",
		len(s.Nets()), strings.Join(s.Nets(), ","), source, ln.Addr())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	if err := s.Run(context.Background(), ln, sigs); err != nil {
		fmt.Fprintf(os.Stderr, "rlensd: %v\n", err)
		exit(1)
	}
	exit(0)
}
