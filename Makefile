# Verification tiers. tier1 is the gate every PR must keep green — build,
# the full test suite, go vet over the root module, a formatting gate
# that fails when gofmt -l lists any file, the metriclint static check
# (metric naming rules plus exactly-once event-type registration), and a
# build and vet of the perfbench module, which imports internal packages
# (core, compress, simroute, reach, whatif, pathway, parsecache,
# snapshot, telemetry) from its layers replay, so a change that breaks
# it fails here rather than on the next traced benchmark run. tier1
# also fails when anything outside perfbench/ starts using what only
# perfbench's layer replay keeps alive until the next benchmark change
# deletes it: when `go list -deps ./cmd/... ./examples/... .` lists
# internal/compress, or when a non-test .go file outside perfbench/
# calls core.WithCache, core.WithCacheOrigin or parsecache.New (a reload
# reuses the serving generation's Result instead of a parse cache); tier2
# repeats vet and adds the race detector over every package — that
# includes the worker pools in core/experiments, the telemetry layer
# they share, instance.Model's edge indexes under concurrent readers,
# the simulator's prefix shards (TestShardedRunMatchesWhole over the
# whole corpus, then three more times under -short: the small networks
# and net5), and the serve daemon's swap/shed/drain paths (with extra
# iteration-count runs of the concurrent-queries-during-reload stresses,
# query cache on and off, plus the fleet isolation stress proving a
# failing or slow reload of one network never blocks another, and the
# ingest convergence stress racing the config watcher against pushes,
# manual reloads and rollbacks) — and a short fuzz pass over every ingestion fuzz target
# including the tar.gz push extractor, plus the reload-model check that
# drives random reload, push, rollback, edit and watcher sequences with
# injected faults against a reference model of one network
# (fuzzsmoke); benchsmoke runs the instrumented pipeline benches and the
# simulator benches once so stage-instrumentation overhead and the
# simulator's time and allocations stay visible in CI output. Three of
# them run at -cpu 1,2, so every log shows the one-core and the pooled
# or sharded time side by side: BenchmarkSimrouteNet5, net5's cold
# simulation, whose prefixes Run shards across GOMAXPROCS;
# BenchmarkSimrouteNet5Edit, the same after a one-line edit, reusing the
# unedited generation's fixpoint and moving one prefix inline; and
# BenchmarkAnalyzeDirNet5Edit, the analysis of that reload, which reads
# and keys all 881 files and parses the edited one on the analyzer's
# worker pool, then runs the six stages. benchsmoke also runs the
# in-process query-stack bench (a cached hit and a miss per fleet
# endpoint) so every CI log prints the hit path's allocations. The
# operator-facing benchmark is not a make target: `bash perfbench/run.sh`
# drives a real rlensd end to end (see perfbench/README.md).

.PHONY: tier1 tier2 fuzzsmoke benchsmoke all

all: tier1 tier2 benchsmoke

tier1:
	go build ./... && go test ./...
	go vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	go run ./tools/metriclint
	go -C perfbench build ./... && go -C perfbench vet ./...
	@if go list -deps ./cmd/... ./examples/... . | grep -qx 'routinglens/internal/compress'; then \
		echo "internal/compress is linked outside perfbench/"; exit 1; fi
	@callers="$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=perfbench \
		'core\.WithCache(Origin)?\(|parsecache\.New\(' .)"; if [ -n "$$callers" ]; then \
		echo "only perfbench/ may call core.WithCache, core.WithCacheOrigin or parsecache.New:"; \
		echo "$$callers"; exit 1; fi

tier2: fuzzsmoke
	go vet ./... && go test -race ./...
	go test -race -count=3 -run '^TestConcurrentQueriesDuringReload$$' ./internal/serve
	go test -race -count=3 -run '^TestConcurrentQueriesAcrossSwapWithQueryCache$$' ./internal/serve
	go test -race -count=3 -run '^TestWatchDuringConcurrentReloads$$' ./internal/serve
	go test -race -count=3 -run '^TestFleetReloadIsolationStress$$' ./internal/serve
	go test -race -count=3 -run '^TestSnapshotLoadDuringReloadStress$$' ./internal/serve
	go test -race -count=3 -run '^TestIngestConvergenceStress$$' ./internal/serve
	go test -race -short -count=3 -run '^TestShardedRunMatchesWhole$$' ./internal/simroute
	go test -race -run '^TestParseCacheConcurrent$$' ./internal/parsecache
	go test -race -count=3 -run '^TestQuotientDeterministic$$' ./internal/compress

# fuzzsmoke gives each parser/anonymizer fuzz target ~10s of random
# input; a real campaign uses -fuzztime 30s+ per target. Saved crashers
# land in testdata/fuzz/ and replay under plain `go test` forever.
FUZZTIME ?= 10s
fuzzsmoke:
	go test -run '^$$' -fuzz '^FuzzParseAddr$$' -fuzztime $(FUZZTIME) ./internal/netaddr
	go test -run '^$$' -fuzz '^FuzzParseMask$$' -fuzztime $(FUZZTIME) ./internal/netaddr
	go test -run '^$$' -fuzz '^FuzzParsePrefix$$' -fuzztime $(FUZZTIME) ./internal/netaddr
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/ciscoparse
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/junosparse
	go test -run '^$$' -fuzz '^FuzzAnonymizeRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/anonymize
	go test -run '^$$' -fuzz '^FuzzQueryParams$$' -fuzztime $(FUZZTIME) ./internal/serve
	go test -run '^$$' -fuzz '^FuzzCacheKey$$' -fuzztime $(FUZZTIME) ./internal/parsecache
	go test -run '^$$' -fuzz '^FuzzSnapshotLoad$$' -fuzztime $(FUZZTIME) ./internal/snapshot
	go test -run '^$$' -fuzz '^FuzzTarIngest$$' -fuzztime $(FUZZTIME) ./internal/ingest
	go test -run '^$$' -fuzz '^FuzzReloadModel$$' -fuzztime $(FUZZTIME) ./internal/serve

benchsmoke:
	go test -run '^$$' -bench '^BenchmarkAnalyzeNet5$$|BenchmarkSimrouteNet15' -benchtime=1x .
	go test -run '^$$' -bench '^(BenchmarkSimrouteNet5(Edit)?|BenchmarkAnalyzeDirNet5Edit)$$' -benchtime=1x -cpu 1,2 .
	go test -run '^$$' -bench 'BenchmarkQueryStack' -benchtime=1x ./internal/serve
