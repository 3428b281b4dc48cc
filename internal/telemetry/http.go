package telemetry

import (
	"net/http"
	"strconv"
	"time"
)

// HTTP serving metrics. The request counter is labeled by endpoint and
// status code; the latency histogram by endpoint only, so cardinality
// stays bounded however clients misbehave.
const (
	// MetricHTTPRequests counts served requests by endpoint and code.
	MetricHTTPRequests = "routinglens_http_requests_total"
	// MetricHTTPLatency observes request latency in seconds by endpoint.
	MetricHTTPLatency = "routinglens_http_request_seconds"
)

// StatusWriter wraps a ResponseWriter and records what was sent, so
// code around a handler can know whether (and how) the response has
// already been written.
type StatusWriter struct {
	http.ResponseWriter
	// Status is the status code sent, or 0 before the header is written.
	Status int
}

// Wrote reports whether the response header has been written.
func (w *StatusWriter) Wrote() bool { return w.Status != 0 }

// WriteHeader records the code and forwards it.
func (w *StatusWriter) WriteHeader(code int) {
	if w.Status == 0 {
		w.Status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write implies a 200 if the header was never written explicitly.
func (w *StatusWriter) Write(p []byte) (int, error) {
	if w.Status == 0 {
		w.Status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap exposes the wrapped writer so http.ResponseController can reach
// optional interfaces (Flusher for the SSE watch stream) through it.
func (w *StatusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// InstrumentHandler wraps an HTTP handler with the registry's request
// metrics and a per-request "http/<endpoint>" span. The span is observed
// in the stage-latency histogram but recorded in no collector: a
// resident server must not accumulate span records for the life of the
// process, so only the bounded registry (counter + latency histograms)
// outlives the request.
func InstrumentHandler(reg *Registry, endpoint string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &StatusWriter{ResponseWriter: w}
		ctx := WithRegistry(r.Context(), reg)
		ctx, span := StartSpan(ctx, "http/"+endpoint)
		start := time.Now()
		defer func() {
			if sw.Status == 0 {
				// The handler wrote nothing at all; net/http will send 200.
				sw.Status = http.StatusOK
			}
			reg.Counter(MetricHTTPRequests,
				L("endpoint", endpoint), L("code", strconv.Itoa(sw.Status))).Inc()
			reg.Histogram(MetricHTTPLatency, nil, L("endpoint", endpoint)).
				Observe(time.Since(start).Seconds())
			span.End()
		}()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}
