package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"routinglens/internal/telemetry"
)

// queryFunc answers one validated query against one pinned generation
// of the network.
type queryFunc func(w http.ResponseWriter, r *http.Request, nw *Network, st *State, q Query)

// queryMetrics are the handles one (net, endpoint) pair's queries
// observe. addNet resolves them once, so a query's request path takes no
// registry lookup; only rare outcomes (a status other than 200, a shed,
// a timeout, a panic, a slow query) still look a series up.
type queryMetrics struct {
	reg      *telemetry.Registry
	endpoint string
	// ok counts the endpoint's 200s; latency and stage are its HTTP and
	// "http/<endpoint>" stage latency histograms.
	ok             *telemetry.Counter
	latency, stage *telemetry.Histogram
	// net is the per-network latency histogram: nil when the request
	// named no known network.
	net *telemetry.Histogram
	// hits and misses count query-cache lookups: nil without a cache.
	hits, misses *telemetry.Counter
}

// newQueryMetrics resolves an endpoint's network-independent handles.
func newQueryMetrics(reg *telemetry.Registry, endpoint string) *queryMetrics {
	lep := telemetry.L("endpoint", endpoint)
	return &queryMetrics{
		reg:      reg,
		endpoint: endpoint,
		ok:       reg.Counter(telemetry.MetricHTTPRequests, lep, telemetry.L("code", "200")),
		latency:  reg.Histogram(telemetry.MetricHTTPLatency, nil, lep),
		stage:    reg.Histogram(telemetry.StageSecondsMetric, nil, telemetry.L("stage", "http/"+endpoint)),
	}
}

// observe records one finished request.
func (m *queryMetrics) observe(status int, d time.Duration) {
	if status == http.StatusOK {
		m.ok.Inc()
	} else {
		m.reg.Counter(telemetry.MetricHTTPRequests,
			telemetry.L("endpoint", m.endpoint), telemetry.L("code", strconv.Itoa(status))).Inc()
	}
	sec := d.Seconds()
	m.latency.Observe(sec)
	m.stage.Observe(sec)
	if m.net != nil {
		m.net.Observe(sec)
	}
}

// queryRoute serves one data-plane route in one pass that does, in
// order: trace-ID assignment and the request's root span, the method
// check, network resolution, panic recovery, the per-network
// concurrency limiter, the generation pin, ParseQuery, and the
// per-network per-generation query cache. A cache hit is answered
// inline; only a miss runs the fault hook and the handler, in a child
// goroutine under the request deadline (compute). Every outcome — a
// replay, a shed 429, a timeout 504, a recovered panic — gets a trace
// ID, a trace-store record and its metrics. The control plane runs a
// lighter pass (Server.control): it must answer even when queries are
// saturated or timing out.
type queryRoute struct {
	s        *Server
	method   string
	endpoint string
	span     string // the root span's name, "http/<endpoint>"
	site     string // the fault-injection site, "handler.<endpoint>"
	h        queryFunc
}

func (qr *queryRoute) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := qr.s
	start := time.Now()
	id := traceRequest(w, r)
	col := telemetry.NewCollector()
	span := telemetry.StartRequestSpan(qr.span, col, start)
	sw := &telemetry.StatusWriter{ResponseWriter: w}
	nw, hit := qr.answer(sw, r, id, span)
	d := span.End()
	status := sw.Status
	if status == 0 {
		status = http.StatusOK
	}
	if nw != nil {
		nw.queries[qr.endpoint].observe(status, d)
	} else {
		newQueryMetrics(s.reg, qr.endpoint).observe(status, d)
	}
	slow := s.cfg.SlowQuery > 0 && d >= s.cfg.SlowQuery
	s.traces.Add(telemetry.TraceRecord{
		ID:       id,
		Endpoint: qr.endpoint,
		Status:   status,
		CacheHit: hit,
		Start:    start,
		Duration: d,
		Slow:     slow,
		Spans:    col.Records(),
	})
	s.traces.ObserveExemplar(qr.endpoint, id, d)
	if slow {
		// A request that resolved no network is counted and logged, but
		// has no network's event ring to publish on.
		var name string
		if nw != nil {
			name = nw.name
		}
		s.reg.Counter(MetricSlowQueries, telemetry.L("endpoint", qr.endpoint)).Inc()
		s.log.Warn("slow query",
			"endpoint", qr.endpoint, "net", name, "trace_id", id, "status", status,
			"elapsed", d.Round(time.Microsecond), "threshold", s.cfg.SlowQuery)
		if nw != nil {
			nw.emit(EvtSlowQuery, slowQueryPayload{
				Endpoint: qr.endpoint, TraceID: id, Status: status, DurationMS: d.Milliseconds(),
			})
		}
	}
}

// answer writes the request's response and returns the network it
// resolved (nil when none) and whether the query cache answered it.
func (qr *queryRoute) answer(w *telemetry.StatusWriter, r *http.Request, id string, span *telemetry.Span) (nw *Network, hit bool) {
	s := qr.s
	if !allowMethod(w, r, qr.method, id) {
		return nil, false
	}
	if nw = s.resolveNet(w, r, id); nw == nil {
		return nil, false
	}
	defer func() {
		if p := recover(); p != nil {
			s.recovered(w, p, qr.endpoint, nw, id)
		}
	}()
	// The limiter is per-network: a saturated network sheds its own load
	// while the rest of the fleet keeps answering. Shedding at once,
	// instead of queueing everyone into timeout, keeps latency bounded
	// for the requests that do get in.
	select {
	case nw.sem <- struct{}{}:
	default:
		s.reg.Counter(MetricShed, telemetry.L("net", nw.name)).Inc()
		// A shed storm is one event per second, not one per rejection:
		// the counter above keeps the true rate, the event stream keeps
		// its bounded-history narrative.
		if emit, n := nw.shedEvents.hit(1); emit {
			nw.emit(EvtShed, shedPayload{Count: n})
		}
		w.Header().Set("Retry-After", "1")
		writeEnvelope(w, id, http.StatusTooManyRequests, codeSaturated, "saturated; retry shortly")
		return nw, false
	}
	nw.inflight.Add(1)
	defer func() {
		nw.inflight.Add(-1)
		<-nw.sem
	}()
	st := nw.cur.Load()
	if st == nil {
		writeEnvelope(w, id, http.StatusServiceUnavailable, codeNoDesign, "no design loaded yet")
		return nw, false
	}
	q, err := ParseQuery(qr.endpoint, r.URL.RawQuery)
	if err != nil {
		writeEnvelope(w, id, http.StatusBadRequest, codeBadRequest, err.Error())
		return nw, false
	}
	var key string
	if nw.qc != nil {
		// The key embeds the pinned generation's seq, so a response can
		// only ever be served to requests of the generation that computed
		// it — a reload swap makes every older entry unreachable. The
		// cache itself is per-network, so two fleets' identical queries
		// never cross.
		key = qkey(st.Seq, q)
		if e, ok := nw.qc.get(key); ok {
			nw.queries[qr.endpoint].hits.Inc()
			e.serveTo(w)
			return nw, true
		}
	}
	qr.compute(w, r, id, span, nw, st, q, key)
	return nw, false
}

// compute answers a query the cache could not: the handler.<endpoint>
// fault hook, then the handler. Both run in a child goroutine writing to
// a buffered response, under the request deadline. If they beat it the
// buffer is flushed to the client, otherwise the client gets 504 at once
// (the goroutine's leftover work is bounded by the handlers, which are
// short and allocation-only). With a cache (key non-empty) the miss is
// counted once the hook lets the handler run — a request a fault kills
// computed nothing — and a 200 is cached from the goroutine itself, so
// an answer that lands after the deadline still serves the next
// request. A panic in the child is re-raised here, so answer's recovery
// sees it.
func (qr *queryRoute) compute(w http.ResponseWriter, r *http.Request, id string, span *telemetry.Span,
	nw *Network, st *State, q Query, key string) {
	s := qr.s
	ctx, cancel := context.WithTimeout(
		telemetry.RequestContext(r.Context(), id, s.reg, span), s.cfg.RequestTimeout)
	defer cancel()
	r = r.WithContext(ctx)
	bw := &bufferedResponse{header: make(http.Header)}
	done := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				panicked <- p
			}
		}()
		if err := s.faults.Fire(ctx, qr.site); err != nil {
			writeError(bw, r, http.StatusInternalServerError, codeInternal, err.Error())
		} else {
			if key != "" {
				nw.queries[qr.endpoint].misses.Inc()
			}
			qr.h(bw, r, nw, st, q)
			// Only 200s are cached: errors stay cheap to recompute and a
			// transient failure must not be pinned for a generation.
			if key != "" && (bw.status == 0 || bw.status == http.StatusOK) {
				nw.cacheAnswer(key, bw)
			}
		}
		close(done)
	}()
	select {
	case <-done:
		bw.flushTo(w)
	case p := <-panicked:
		panic(p)
	case <-ctx.Done():
		s.reg.Counter(MetricTimeouts).Inc()
		writeEnvelope(w, id, http.StatusGatewayTimeout, codeTimeout,
			fmt.Sprintf("request exceeded %v", s.cfg.RequestTimeout))
	}
}

// cacheAnswer stores one computed 200 in the network's query cache. The
// entry shares the buffer's body, which nothing writes again.
func (nw *Network) cacheAnswer(key string, bw *bufferedResponse) {
	ev := nw.qc.put(key, &qentry{
		status: http.StatusOK,
		ctype:  bw.header.Get("Content-Type"),
		body:   bw.body.Bytes(),
	})
	if ev > 0 {
		nw.s.reg.Counter(MetricQueryCacheEvictions).Add(int64(ev))
		if emit, n := nw.cacheEvents.hit(int64(ev)); emit {
			nw.emit(EvtCachePressure, cachePressurePayload{Evicted: n})
		}
	}
	nw.qcEntries.Set(float64(nw.qc.len()))
}

// bufferedResponse holds a handler's response until it is known to have
// finished in time. The serving goroutine only reads it after the done
// channel closes, which orders all handler writes before the read — no
// locking needed; on timeout it is abandoned unread.
type bufferedResponse struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) flushTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if b.status == 0 {
		b.status = http.StatusOK
	}
	w.WriteHeader(b.status)
	w.Write(b.body.Bytes())
}
