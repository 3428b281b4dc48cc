package serve

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"routinglens/internal/telemetry"
)

// routeKind selects the pass a route's requests take.
type routeKind int

const (
	// routeGlobal is the control plane shared by the whole fleet:
	// instrumentation and panic recovery only, so health checks and
	// metrics answer even when queries are saturated or timing out.
	routeGlobal routeKind = iota
	// routeQuery is a per-network data-plane endpoint served by
	// queryRoute: tracing, per-network shedding, query cache, and a
	// deadline, fault hook and handler on a miss.
	routeQuery
	// routeNetCtl is a per-network control endpoint (reload, events,
	// watch): network-scoped but exempt from the query limiter and the
	// buffering timeout — reloads are deliberately slow and watches are
	// deliberately long-lived.
	routeNetCtl
)

// routeSpec declares one route of the daemon's HTTP surface. The whole
// surface is this table: buildHandler mounts it and RouteTable renders
// it for the golden-route regression test.
type routeSpec struct {
	method   string
	pattern  string
	endpoint string
	kind     routeKind
}

// routes is the daemon's complete HTTP surface, in documentation order:
// fleet-wide control plane, then the per-network API.
var routes = []routeSpec{
	{method: "GET", pattern: "/healthz", endpoint: "healthz", kind: routeGlobal},
	{method: "GET", pattern: "/readyz", endpoint: "readyz", kind: routeGlobal},
	{method: "GET", pattern: "/metrics", endpoint: "metrics", kind: routeGlobal},
	{method: "GET", pattern: "/v1/nets", endpoint: "nets", kind: routeGlobal},
	{method: "GET", pattern: "/v1/version", endpoint: "version", kind: routeGlobal},
	{method: "GET", pattern: "/debug/traces", endpoint: "traces", kind: routeGlobal},
	{method: "GET", pattern: "/debug/traces/{id}", endpoint: "trace", kind: routeGlobal},

	{method: "GET", pattern: "/v1/nets/{net}/summary", endpoint: "summary", kind: routeQuery},
	{method: "GET", pattern: "/v1/nets/{net}/pathway", endpoint: "pathway", kind: routeQuery},
	{method: "GET", pattern: "/v1/nets/{net}/reach", endpoint: "reach", kind: routeQuery},
	{method: "GET", pattern: "/v1/nets/{net}/whatif", endpoint: "whatif", kind: routeQuery},
	{method: "POST", pattern: "/v1/nets/{net}/reload", endpoint: "reload", kind: routeNetCtl},
	{method: "POST", pattern: "/v1/nets/{net}/configs", endpoint: "configs", kind: routeNetCtl},
	{method: "POST", pattern: "/v1/nets/{net}/configs/rollback", endpoint: "rollback", kind: routeNetCtl},
	{method: "GET", pattern: "/v1/nets/{net}/quarantine", endpoint: "quarantine", kind: routeNetCtl},
	{method: "GET", pattern: "/v1/nets/{net}/events", endpoint: "events", kind: routeNetCtl},
	{method: "GET", pattern: "/v1/nets/{net}/watch", endpoint: "watch", kind: routeNetCtl},
}

// RouteTable renders the full route surface, one line per route — the
// contract the golden-route test (testdata/routes.golden) pins, so an
// accidental route change fails CI instead of surprising a consumer.
func RouteTable() string {
	var b strings.Builder
	for _, rt := range routes {
		fmt.Fprintf(&b, "%-4s %-28s endpoint=%s\n", rt.method, rt.pattern, rt.endpoint)
	}
	return b.String()
}

// buildHandler mounts the route table plus a catch-all that speaks the
// same JSON error envelope as everything else.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.Handle(rt.pattern, s.routeHandler(rt))
	}
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, traceRequest(w, r), http.StatusNotFound, codeNotFound,
			"no such endpoint; GET /v1/nets lists the fleet")
	}))
	return mux
}

// routeHandler builds the handler one route runs behind.
func (s *Server) routeHandler(rt routeSpec) http.Handler {
	switch rt.kind {
	case routeQuery:
		return &queryRoute{
			s:        s,
			method:   rt.method,
			endpoint: rt.endpoint,
			span:     "http/" + rt.endpoint,
			site:     "handler." + rt.endpoint,
			h:        s.queryHandler(rt.endpoint),
		}
	case routeNetCtl:
		return s.control(rt, s.netCtlHandler(rt.endpoint))
	default:
		h := s.globalHandler(rt.endpoint)
		return s.control(rt, func(w http.ResponseWriter, r *http.Request, _ *Network) { h(w, r) })
	}
}

// control serves one control-plane route in one pass: request metrics
// and the "http/<endpoint>" span (telemetry.InstrumentHandler), the
// trace ID, the method check, network resolution for per-network
// routes, and panic recovery. It skips the query limiter, the deadline
// and the trace store: health checks and recovery actions must answer
// even when queries are saturated or timing out, reloads are
// deliberately slow, and watch streams are deliberately long-lived.
func (s *Server) control(rt routeSpec, h func(http.ResponseWriter, *http.Request, *Network)) http.Handler {
	perNet := rt.kind == routeNetCtl
	// Watch streams indefinitely; observing its latency would record
	// connection lifetimes, not service time.
	observe := perNet && rt.endpoint != "watch"
	return telemetry.InstrumentHandler(s.reg, rt.endpoint, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := traceRequest(w, r)
		r = r.WithContext(telemetry.WithTraceID(r.Context(), id))
		if !allowMethod(w, r, rt.method, id) {
			return
		}
		var nw *Network
		if perNet {
			if nw = s.resolveNet(w, r, id); nw == nil {
				return
			}
			if observe {
				defer s.observeNetLatency(nw, rt.endpoint, time.Now())
			}
		}
		sw := &telemetry.StatusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.recovered(sw, p, rt.endpoint, nw, id)
			}
		}()
		h(sw, r, nw)
	}))
}

// observeNetLatency observes one control request's latency, measured
// from start, in its network's per-endpoint histogram.
func (s *Server) observeNetLatency(nw *Network, endpoint string, start time.Time) {
	s.reg.Histogram(MetricNetLatency, nil, telemetry.L("net", nw.name), telemetry.L("endpoint", endpoint)).
		Observe(time.Since(start).Seconds())
}

// allowMethod answers a request with the wrong method with the shared
// 405 envelope and reports whether the request may go on.
func allowMethod(w http.ResponseWriter, r *http.Request, method, traceID string) bool {
	if r.Method == method {
		return true
	}
	writeEnvelope(w, traceID, http.StatusMethodNotAllowed, codeMethodNotAllowed, "use "+method)
	return false
}

// resolveNet finds the network a request's {net} path value names, or
// answers it with a 404 (code unknown_net) and returns nil.
func (s *Server) resolveNet(w http.ResponseWriter, r *http.Request, traceID string) *Network {
	name := r.PathValue("net")
	if nw := s.nets[name]; nw != nil {
		return nw
	}
	writeEnvelope(w, traceID, http.StatusNotFound, codeUnknownNet,
		fmt.Sprintf("unknown network %q; GET /v1/nets lists the fleet", name))
	return nil
}

// recovered turns a recovered handler panic p into a 500 (unless the
// response has already started) and a routinglens_panics_recovered_total
// increment. The request dies; the process — and every later request,
// on every network — does not. A panic on a request that resolved a
// network (nw non-nil) is also published on that network's event ring;
// a fleet-wide route's panic has no ring to go to.
func (s *Server) recovered(w *telemetry.StatusWriter, p any, endpoint string, nw *Network, traceID string) {
	s.reg.Counter(MetricPanicsRecovered).Inc()
	var name string
	if nw != nil {
		name = nw.name
	}
	s.log.Error("panic recovered; request failed, server continues",
		"endpoint", endpoint, "net", name, "panic", fmt.Sprint(p))
	if nw != nil {
		nw.emit(EvtPanic, panicPayload{Endpoint: endpoint, Net: name, TraceID: traceID})
	}
	if !w.Wrote() {
		writeEnvelope(w, traceID, http.StatusInternalServerError, codeInternal,
			"internal error (panic recovered)")
	}
}

// queryHandler maps a data-plane endpoint name to its handler.
func (s *Server) queryHandler(endpoint string) queryFunc {
	switch endpoint {
	case "summary":
		return s.handleSummary
	case "pathway":
		return s.handlePathway
	case "reach":
		return s.handleReach
	case "whatif":
		return s.handleWhatif
	}
	panic("serve: no query handler for endpoint " + endpoint)
}

// netCtlHandler maps a per-network control endpoint name to its handler.
func (s *Server) netCtlHandler(endpoint string) func(http.ResponseWriter, *http.Request, *Network) {
	switch endpoint {
	case "reload":
		return s.handleReload
	case "configs":
		return s.handleConfigs
	case "rollback":
		return s.handleRollback
	case "quarantine":
		return s.handleQuarantine
	case "events":
		return s.handleEvents
	case "watch":
		return s.handleWatch
	}
	panic("serve: no net-control handler for endpoint " + endpoint)
}

// globalHandler maps a fleet-wide control endpoint name to its handler.
func (s *Server) globalHandler(endpoint string) http.HandlerFunc {
	switch endpoint {
	case "healthz":
		return s.handleHealthz
	case "readyz":
		return s.handleReadyz
	case "metrics":
		return s.handleMetrics
	case "nets":
		return s.handleNets
	case "version":
		return s.handleVersion
	case "traces":
		return s.handleTraces
	case "trace":
		return s.handleTrace
	}
	panic("serve: no global handler for endpoint " + endpoint)
}
