package serve

import (
	"sync"
	"time"

	"routinglens/internal/designdiff"
	"routinglens/internal/events"
)

// The daemon's event vocabulary. Each type is registered exactly once
// here (events.MustType panics on duplicates; tools/metriclint enforces
// it statically), next to the payload type it carries.
var (
	// EvtSwap: a new design generation was published. Payload: swapPayload.
	EvtSwap = events.MustType("generation.swap")
	// EvtDesignDiff: the new generation's design differs from the
	// previous one. Payload: diffPayload with the full structured delta.
	EvtDesignDiff = events.MustType("design.diff")
	// EvtCompartment: one compartment's slice of a design diff, so a
	// consumer can subscribe at per-compartment granularity. Payload:
	// compartmentPayload.
	EvtCompartment = events.MustType("design.compartment")
	// EvtReloadFailed: a (re)load gave up after retries; the daemon is
	// degraded on its last-good design. Payload: reloadFailedPayload.
	EvtReloadFailed = events.MustType("reload.failed")
	// EvtReadyRecovered: a successful reload cleared a degraded state.
	// Payload: recoveredPayload.
	EvtReadyRecovered = events.MustType("readiness.recovered")
	// EvtShed: the concurrency limiter rejected load (coalesced; the
	// payload carries the count since the previous shed event).
	EvtShed = events.MustType("query.shed")
	// EvtPanic: a handler panic was recovered into a 500. Payload:
	// panicPayload.
	EvtPanic = events.MustType("panic.recovered")
	// EvtCachePressure: the query cache evicted entries under its LRU
	// bound (coalesced like EvtShed).
	EvtCachePressure = events.MustType("cache.pressure")
	// EvtSlowQuery: a data-plane request exceeded the -slow-query
	// threshold. Payload: slowQueryPayload with the trace ID.
	EvtSlowQuery = events.MustType("query.slow")
	// EvtTruncated is never published to the ring: the watch stream
	// synthesizes it per-subscriber when a resume cursor has aged out,
	// so truncation is an explicit event, not a silent skip.
	EvtTruncated = events.MustType("stream.truncated")
	// EvtDesignRejected: admission control refused a cleanly analyzed
	// candidate; it is quarantined while the last-good design keeps
	// serving. Payload: rejectedPayload.
	EvtDesignRejected = events.MustType("design.rejected")
	// EvtIngestSuspended: a config-source watcher's circuit breaker
	// tripped after consecutive failures; polls continue at the capped
	// backoff. Payload: ingestSuspendedPayload.
	EvtIngestSuspended = events.MustType("ingest.suspended")
	// EvtIngestResumed: a suspended watcher saw a good signature (or a
	// revert) and resumed its normal interval. Payload:
	// ingestResumedPayload.
	EvtIngestResumed = events.MustType("ingest.resumed")
	// EvtConfigPushed: a pushed archive was admitted and promoted into
	// the generation chain. Payload: configPushedPayload.
	EvtConfigPushed = events.MustType("config.pushed")
	// EvtConfigRolledBack: the previous pushed generation was restored
	// as the active directory. Payload: configRolledbackPayload.
	EvtConfigRolledBack = events.MustType("config.rolledback")
)

// swapPayload announces a published generation.
type swapPayload struct {
	Seq          int64  `json:"seq"`
	PrevSeq      int64  `json:"prev_seq,omitempty"`
	Network      string `json:"network"`
	Routers      int    `json:"routers"`
	Instances    int    `json:"instances"`
	SkippedFiles int    `json:"skipped_files,omitempty"`
	ElapsedMS    int64  `json:"elapsed_ms"`
}

// diffPayload carries the full structured design delta between two
// consecutive generations.
type diffPayload struct {
	FromSeq int64            `json:"from_seq"`
	ToSeq   int64            `json:"to_seq"`
	Delta   designdiff.Delta `json:"delta"`
}

// compartmentPayload is one compartment's delta, emitted alongside the
// full diff so "your EIGRP compartment gained a redistribution edge"
// arrives as its own event.
type compartmentPayload struct {
	FromSeq     int64                       `json:"from_seq"`
	ToSeq       int64                       `json:"to_seq"`
	Compartment designdiff.CompartmentDelta `json:"compartment"`
}

// reloadFailedPayload explains a degraded daemon.
type reloadFailedPayload struct {
	Error      string `json:"error"`
	ServingSeq int64  `json:"serving_seq,omitempty"`
	HaveDesign bool   `json:"have_design"`
}

// recoveredPayload marks the end of a degraded window.
type recoveredPayload struct {
	Seq int64 `json:"seq"`
}

// shedPayload counts limiter rejections coalesced into one event.
type shedPayload struct {
	Count int64 `json:"count"`
}

// panicPayload identifies a recovered handler panic.
type panicPayload struct {
	Endpoint string `json:"endpoint"`
	Net      string `json:"net,omitempty"`
	TraceID  string `json:"trace_id,omitempty"`
}

// cachePressurePayload counts query-cache evictions coalesced into one
// event.
type cachePressurePayload struct {
	Evicted int64 `json:"evicted"`
}

// slowQueryPayload identifies a request that blew the slow-query
// threshold; the trace ID resolves at /debug/traces/<id>.
type slowQueryPayload struct {
	Endpoint   string `json:"endpoint"`
	TraceID    string `json:"trace_id"`
	Status     int    `json:"status"`
	DurationMS int64  `json:"duration_ms"`
}

// truncatedPayload tells a resuming watcher how much history it missed.
type truncatedPayload struct {
	RequestedCursor uint64 `json:"requested_cursor"`
	OldestCursor    uint64 `json:"oldest_cursor"`
}

// rejectedPayload explains an admission-control rejection.
type rejectedPayload struct {
	Trigger    string                 `json:"trigger"`
	Reasons    []string               `json:"reasons"`
	Loss       designdiff.LossSummary `json:"loss"`
	ErrorDiags int                    `json:"error_diags"`
	ServingSeq int64                  `json:"serving_seq"`
}

// ingestSuspendedPayload marks a tripped watcher circuit breaker.
type ingestSuspendedPayload struct {
	Failures  int    `json:"failures"`
	BackoffMS int64  `json:"backoff_ms"`
	Error     string `json:"error,omitempty"`
}

// ingestResumedPayload marks a watcher recovery.
type ingestResumedPayload struct {
	FailuresCleared int `json:"failures_cleared"`
}

// configPushedPayload announces an admitted, promoted push.
type configPushedPayload struct {
	Generation string `json:"generation"`
	Files      int    `json:"files"`
	Bytes      int64  `json:"bytes"`
}

// configRolledbackPayload announces a restored generation.
type configRolledbackPayload struct {
	Restored string `json:"restored"`
}

// emit publishes one event into the network's ring; it is a no-op on a
// zero-value Network so internal helpers never have to nil-check.
func (nw *Network) emit(t events.Type, payload any) {
	if nw.evts != nil {
		nw.evts.Publish(t, payload)
	}
}

// coalescer rate-limits a high-frequency event source (shed storms,
// cache-eviction churn) to at most one event per interval, accumulating
// the count in between so nothing is lost — the event stream stays a
// bounded-rate narrative while the full-rate counters live in /metrics.
type coalescer struct {
	mu      sync.Mutex
	last    time.Time
	pending int64
}

// coalesceInterval is the minimum spacing between two events of one
// coalesced source.
const coalesceInterval = time.Second

// hit records n occurrences; when the interval has elapsed it returns
// emit=true with the accumulated count (including this hit) and resets.
func (c *coalescer) hit(n int64) (emit bool, count int64) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending += n
	if now.Sub(c.last) < coalesceInterval {
		return false, 0
	}
	c.last = now
	count = c.pending
	c.pending = 0
	return true, count
}

// emitSwapEvents publishes the generation-swap event and, when the
// design changed, the design-diff event plus one event per changed
// compartment, into the network's own ring. It runs after the pointer
// swap — consumers observing the event can immediately query the
// generation it announces. delta is the reload attempt's delta against
// prev, nil exactly when there is no prev.
func (nw *Network) emitSwapEvents(prev, st *State, delta *designdiff.Delta) {
	p := swapPayload{
		Seq:          st.Seq,
		Network:      st.Res.Design.Network.Name,
		Routers:      len(st.Res.Design.Network.Devices),
		Instances:    len(st.Res.Design.Instances.Instances),
		SkippedFiles: len(st.Res.Skipped),
		ElapsedMS:    st.Res.Elapsed.Milliseconds(),
	}
	if prev != nil {
		p.PrevSeq = prev.Seq
	}
	nw.emit(EvtSwap, p)
	if delta == nil || delta.Empty {
		return
	}
	nw.emit(EvtDesignDiff, diffPayload{FromSeq: prev.Seq, ToSeq: st.Seq, Delta: *delta})
	for _, c := range delta.Compartments {
		nw.emit(EvtCompartment, compartmentPayload{FromSeq: prev.Seq, ToSeq: st.Seq, Compartment: c})
	}
	nw.s.log.Info("design drift detected",
		"net", nw.name, "from_seq", prev.Seq, "to_seq", st.Seq,
		"compartments_changed", len(delta.Compartments),
		"edges_added", len(delta.EdgesAdded), "edges_removed", len(delta.EdgesRemoved),
		"routers_added", len(delta.RoutersAdded), "routers_removed", len(delta.RoutersRemoved))
}
