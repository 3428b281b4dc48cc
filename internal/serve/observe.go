package serve

import (
	"net/http"
	"strconv"
	"time"

	"routinglens/internal/telemetry"
)

// traceRequest assigns the request its trace ID and echoes it on the
// response as X-Trace-Id: an inbound W3C traceparent wins, then a bare
// X-Trace-Id, then a fresh ID — so a caller's distributed trace threads
// through whichever header it uses.
func traceRequest(w http.ResponseWriter, r *http.Request) string {
	id, ok := telemetry.ParseTraceparent(r.Header.Get(telemetry.TraceparentHeader))
	if !ok {
		if id = r.Header.Get(telemetry.TraceHeader); !telemetry.ValidTraceID(id) {
			id = telemetry.NewTraceID()
		}
	}
	w.Header().Set(telemetry.TraceHeader, id)
	return id
}

// traceSpan is the JSON rendering of one recorded span inside a trace.
type traceSpan struct {
	Name       string `json:"name"`
	Path       string `json:"path"`
	Depth      int    `json:"depth"`
	Start      string `json:"start"`
	DurationUS int64  `json:"duration_us"`
	Err        string `json:"err,omitempty"`
}

// traceSummary is one row of the /debug/traces listing.
type traceSummary struct {
	ID         string `json:"id"`
	Endpoint   string `json:"endpoint"`
	Status     int    `json:"status"`
	CacheHit   bool   `json:"cache_hit,omitempty"`
	Start      string `json:"start"`
	DurationUS int64  `json:"duration_us"`
	Slow       bool   `json:"slow,omitempty"`
	Spans      int    `json:"spans"`
}

func summarize(r telemetry.TraceRecord) traceSummary {
	return traceSummary{
		ID:         r.ID,
		Endpoint:   r.Endpoint,
		Status:     r.Status,
		CacheHit:   r.CacheHit,
		Start:      r.Start.UTC().Format(time.RFC3339Nano),
		DurationUS: r.Duration.Microseconds(),
		Slow:       r.Slow,
		Spans:      len(r.Spans),
	}
}

// handleTraces lists recent traces (newest first, ?limit=N) plus the
// per-endpoint worst-recent latency exemplars — the trace IDs the
// latency histograms point at.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 1000 {
			writeError(w, r, http.StatusBadRequest, codeBadRequest, "limit: want an integer in [1,1000]")
			return
		}
		limit = n
	}
	recent := s.traces.Recent(limit)
	out := struct {
		Total     uint64                        `json:"total_traced"`
		Exemplars map[string]telemetry.Exemplar `json:"exemplars"`
		Traces    []traceSummary                `json:"traces"`
	}{
		Total:     s.traces.Total(),
		Exemplars: s.traces.Exemplars(),
		Traces:    make([]traceSummary, 0, len(recent)),
	}
	for _, rec := range recent {
		out.Traces = append(out.Traces, summarize(rec))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTrace serves one trace by ID: /debug/traces/{id}. Only
// data-plane queries (summary, pathway, reach, whatif) reach the trace
// store, so their X-Trace-Id and a query.slow event's trace ID resolve
// here while the bounded store holds them; the X-Trace-Id of a
// control-plane or catch-all response answers 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !telemetry.ValidTraceID(id) {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "malformed trace ID")
		return
	}
	rec, ok := s.traces.Get(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, codeNotFound, "trace not resident (aged out of the bounded store?)")
		return
	}
	out := struct {
		traceSummary
		SpanList []traceSpan `json:"span_list"`
	}{traceSummary: summarize(rec)}
	for _, sp := range rec.Spans {
		out.SpanList = append(out.SpanList, traceSpan{
			Name:       sp.Name,
			Path:       sp.Path,
			Depth:      sp.Depth,
			Start:      sp.Start.UTC().Format(time.RFC3339Nano),
			DurationUS: sp.Duration.Microseconds(),
			Err:        sp.Err,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleVersion reports the build identity (also exported as the
// routinglens_build_info gauge) and how many networks the daemon serves;
// each network's generation is on /v1/nets.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		telemetry.Build
		Nets int `json:"nets,omitempty"`
	}{Build: s.build, Nets: len(s.netNames)})
}
