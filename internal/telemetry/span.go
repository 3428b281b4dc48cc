package telemetry

import (
	"context"
	"sync"
	"time"
)

// StageSecondsMetric is the histogram every finished span observes its
// duration into, labeled by span name.
const StageSecondsMetric = "routinglens_stage_seconds"

// Span is one timed region of the pipeline: a stage, a file parse, an
// experiment. Spans nest through the context; ending a span records it
// in the run's Collector, if its context carries one, and observes its
// duration in the registry's stage-latency histogram.
type Span struct {
	name   string
	start  time.Time
	parent *Span
	depth  int
	col    *Collector
	reg    *Registry
	err    error
	ended  bool
}

// Record is the immutable result of a finished span.
type Record struct {
	// Name is the span name; Path prefixes it with every ancestor
	// ("analyze/topology").
	Name  string
	Path  string
	Depth int
	Start time.Time
	// Duration is wall-clock time from StartSpan to End.
	Duration time.Duration
	// Err is the failure attached with Fail, or "" on success.
	Err string
}

// Collector accumulates the finished spans of one run.
type Collector struct {
	mu   sync.Mutex
	recs []Record
}

// NewCollector creates an empty span collector.
func NewCollector() *Collector { return &Collector{} }

// Records returns a copy of the finished spans in end order.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, len(c.recs))
	copy(out, c.recs)
	return out
}

type collectorKey struct{}
type registryKey struct{}
type spanKey struct{}

// WithCollector returns a context routing spans to col.
func WithCollector(ctx context.Context, col *Collector) context.Context {
	return context.WithValue(ctx, collectorKey{}, col)
}

// CollectorFrom returns the context's collector, or nil when it carries
// none: spans started from such a context are observed in the registry
// but recorded nowhere, so a resident server never accumulates them.
func CollectorFrom(ctx context.Context) *Collector {
	c, _ := ctx.Value(collectorKey{}).(*Collector)
	return c
}

// WithRegistry returns a context routing metrics to r.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, registryKey{}, r)
}

// RegistryFrom returns the context's metrics registry, or Default.
func RegistryFrom(ctx context.Context) *Registry {
	if r, ok := ctx.Value(registryKey{}).(*Registry); ok {
		return r
	}
	return Default
}

// StartSpan opens a span named name, nested under any span already in
// ctx, and returns the derived context to pass to child stages. Always
// pair with End:
//
//	ctx, span := telemetry.StartSpan(ctx, "topology")
//	defer span.End()
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	s := &Span{
		name:   name,
		start:  time.Now(),
		parent: parent,
		col:    CollectorFrom(ctx),
		reg:    RegistryFrom(ctx),
	}
	if parent != nil {
		s.depth = parent.depth + 1
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartRequestSpan opens the root span of one served request at start,
// recording into col. Unlike StartSpan it observes no histogram when it
// ends: the request path observes the duration End returns into
// handles it resolved once. RequestContext puts it in a context, so the
// spans a handler opens nest under it.
func StartRequestSpan(name string, col *Collector, start time.Time) *Span {
	return &Span{name: name, start: start, col: col}
}

// requestContext carries one served request's trace ID, registry and
// root span in a single context value.
type requestContext struct {
	context.Context
	traceID string
	reg     *Registry
	span    *Span
}

func (c *requestContext) Value(key any) any {
	switch key.(type) {
	case traceIDKey:
		return c.traceID
	case registryKey:
		return c.reg
	case spanKey:
		return c.span
	case collectorKey:
		return c.span.col
	}
	return c.Context.Value(key)
}

// RequestContext derives, in one allocation, the context a request's
// handler runs under: TraceIDFrom, RegistryFrom and CollectorFrom answer
// from it, and spans started from it nest under span, the request's
// root span from StartRequestSpan.
func RequestContext(parent context.Context, traceID string, reg *Registry, span *Span) context.Context {
	return &requestContext{Context: parent, traceID: traceID, reg: reg, span: span}
}

// SetName renames the span before End; callers use it when the precise
// name (an experiment id, a file name) is only known after the work ran.
func (s *Span) SetName(name string) { s.name = name }

// Fail attaches an error to the span; the span still needs End.
func (s *Span) Fail(err error) {
	if err != nil {
		s.err = err
	}
}

// Path renders the span's ancestry as "root/child/leaf".
func (s *Span) Path() string {
	if s.parent == nil {
		return s.name
	}
	return s.parent.Path() + "/" + s.name
}

// End finishes the span: it records the duration in the collector, if
// any, and the stage-latency histogram (a request span from
// StartRequestSpan leaves the histogram to its caller). End is
// idempotent; only the first call records.
func (s *Span) End() time.Duration {
	d := time.Since(s.start)
	if s.ended {
		return d
	}
	s.ended = true
	if s.col != nil {
		rec := Record{
			Name:     s.name,
			Path:     s.Path(),
			Depth:    s.depth,
			Start:    s.start,
			Duration: d,
		}
		if s.err != nil {
			rec.Err = s.err.Error()
		}
		s.col.mu.Lock()
		s.col.recs = append(s.col.recs, rec)
		s.col.mu.Unlock()
	}
	if s.reg != nil {
		s.reg.Histogram(StageSecondsMetric, nil, L("stage", s.name)).Observe(d.Seconds())
	}
	return d
}
