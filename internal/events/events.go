// Package events is the serve-side design-drift event backbone: a
// bounded in-memory ring buffer of typed, timestamped events with
// monotonic cursors, plus subscriber fan-out for live watch streams.
//
// The model is deliberately small:
//
//   - Every event type is registered exactly once, at package init, via
//     MustType — duplicate or malformed type strings panic on startup
//     (and tools/metriclint enforces both statically in CI).
//   - Publish assigns each event the next cursor under one lock, so
//     cursors are a total order: observers can reason "I have seen
//     everything up to cursor N" and resume from N after a disconnect.
//   - The ring is bounded. A reader whose resume cursor has aged out of
//     the ring is told so explicitly (Since reports truncated=true and
//     restarts it from the oldest retained event) — events are dropped
//     loudly, never silently skipped.
//   - Fan-out never blocks the publisher: a subscriber whose channel is
//     full has that event dropped and counted (per-subscription and in
//     routinglens_events_dropped_total). Subscribers recover by
//     backfilling from the ring, which is exactly what the serve layer's
//     SSE loop does on a cursor gap.
//
// The package is the publication point rlensd's swap hook, load
// shedding, panic recovery, and slow-query paths feed, and the surface
// /v1/nets/<net>/events and /v1/nets/<net>/watch read.
package events

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"routinglens/internal/telemetry"
)

// Event-stream metrics.
const (
	// MetricPublished counts events published, by type.
	MetricPublished = "routinglens_events_published_total"
	// MetricDropped counts events dropped at slow subscribers.
	MetricDropped = "routinglens_events_dropped_total"
	// MetricSubscribers is the live subscription count.
	MetricSubscribers = "routinglens_events_subscribers"
)

// DefaultBufferSize is the ring capacity when the caller passes none; at
// typical event rates it holds hours of history.
const DefaultBufferSize = 1024

// Type is a registered event type string ("generation.swap",
// "design.diff", ...). Values only come from MustType.
type Type string

var (
	typesMu    sync.Mutex
	registered = map[Type]bool{}
)

// typePattern is the shape every event type string must have: lowercase
// dotted words, e.g. "design.diff" or "query.slow".
var typePattern = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)+$`)

// MustType registers an event type string and returns it as a Type. It
// panics if the string is malformed or already registered — event types
// are process-wide constants declared once, at package init, next to the
// code that emits them.
func MustType(s string) Type {
	if !typePattern.MatchString(s) {
		panic(fmt.Sprintf("events: type %q is not lowercase dotted words", s))
	}
	typesMu.Lock()
	defer typesMu.Unlock()
	t := Type(s)
	if registered[t] {
		panic(fmt.Sprintf("events: type %q registered twice", s))
	}
	registered[t] = true
	return t
}

// Types returns every registered event type, sorted; the events endpoint exposes
// it so consumers can discover the vocabulary.
func Types() []Type {
	typesMu.Lock()
	defer typesMu.Unlock()
	out := make([]Type, 0, len(registered))
	for t := range registered {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Event is one structured, timestamped occurrence. Cursor is the
// buffer-wide monotonic sequence number (first event is 1); Payload is
// any JSON-marshalable value and is shared read-only by every observer.
type Event struct {
	Cursor  uint64    `json:"cursor"`
	Type    Type      `json:"type"`
	Time    time.Time `json:"time"`
	Payload any       `json:"payload,omitempty"`
}

// Buffer is the bounded event ring plus its live subscribers. All
// methods are safe for concurrent use.
type Buffer struct {
	reg    *telemetry.Registry
	labels []telemetry.Label

	mu   sync.Mutex
	ring []Event
	next uint64 // cursor the next published event will get
	subs map[*Subscription]struct{}
}

// NewBuffer creates a ring holding the most recent size events (size <=
// 0 means DefaultBufferSize). reg receives the event metrics; nil means
// telemetry.Default. Optional base labels are attached to every metric
// the buffer emits — a fleet server running one ring per network labels
// each with its network name, so stream metrics stay distinguishable.
func NewBuffer(size int, reg *telemetry.Registry, labels ...telemetry.Label) *Buffer {
	if size <= 0 {
		size = DefaultBufferSize
	}
	if reg == nil {
		reg = telemetry.Default
	}
	return &Buffer{
		reg:    reg,
		labels: labels,
		ring:   make([]Event, size),
		next:   1,
		subs:   make(map[*Subscription]struct{}),
	}
}

// withLabels appends the buffer's base labels to extra (which may be
// nil), never aliasing either slice.
func (b *Buffer) withLabels(extra ...telemetry.Label) []telemetry.Label {
	out := make([]telemetry.Label, 0, len(b.labels)+len(extra))
	out = append(out, b.labels...)
	out = append(out, extra...)
	return out
}

// Publish appends one event, assigns its cursor, and fans it out to
// every subscriber without blocking: a subscriber whose channel is full
// has the event dropped and counted. Returns the published event.
func (b *Buffer) Publish(t Type, payload any) Event {
	b.mu.Lock()
	ev := Event{Cursor: b.next, Type: t, Time: time.Now().UTC(), Payload: payload}
	b.next++
	b.ring[int((ev.Cursor-1)%uint64(len(b.ring)))] = ev
	var dropped int64
	for sub := range b.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			dropped++
		}
	}
	b.mu.Unlock()
	b.reg.Counter(MetricPublished, b.withLabels(telemetry.L("type", string(t)))...).Inc()
	if dropped > 0 {
		b.reg.Counter(MetricDropped, b.labels...).Add(dropped)
	}
	return ev
}

// Latest returns the cursor of the most recently published event (0
// before the first Publish).
func (b *Buffer) Latest() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next - 1
}

// Oldest returns the cursor of the oldest event still in the ring (0
// while the buffer is empty).
func (b *Buffer) Oldest() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.oldestLocked()
}

func (b *Buffer) oldestLocked() uint64 {
	if b.next == 1 {
		return 0
	}
	if b.next-1 <= uint64(len(b.ring)) {
		return 1
	}
	return b.next - uint64(len(b.ring))
}

// Since returns up to max events with cursors strictly greater than
// cursor, in cursor order (max <= 0 means all available). next is the
// cursor to resume from — the last returned event's, or the input cursor
// when nothing newer exists. truncated reports that events between
// cursor and the oldest retained event have been discarded by the ring
// bound: the caller missed history and is restarted from the oldest
// survivor rather than silently skipped forward.
func (b *Buffer) Since(cursor uint64, max int) (evs []Event, next uint64, truncated bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	next = cursor
	oldest := b.oldestLocked()
	if oldest == 0 { // nothing published yet
		return nil, next, false
	}
	latest := b.next - 1
	if cursor > latest {
		// A cursor from the future (stale daemon restart, client bug):
		// nothing to return; the caller resumes from where it is.
		return nil, cursor, false
	}
	from := cursor + 1
	if from < oldest {
		truncated = true
		from = oldest
		next = from - 1
	}
	n := int(latest - from + 1)
	if max > 0 && n > max {
		n = max
	}
	evs = make([]Event, 0, n)
	for c := from; len(evs) < n; c++ {
		evs = append(evs, b.ring[int((c-1)%uint64(len(b.ring)))])
		next = c
	}
	return evs, next, truncated
}

// Subscription is one live fan-out consumer. Receive from Events();
// Close when done. Events published while the channel is full are
// dropped and counted — recover the gap with Buffer.Since.
type Subscription struct {
	b       *Buffer
	ch      chan Event
	dropped atomic.Uint64
	closed  bool // guarded by b.mu
}

// Subscribe registers a consumer whose channel buffers buf events (buf
// <= 0 means 64). Events published after Subscribe returns are
// delivered; pair with Since to pick up earlier history first.
func (b *Buffer) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	sub := &Subscription{b: b, ch: make(chan Event, buf)}
	b.mu.Lock()
	b.subs[sub] = struct{}{}
	n := len(b.subs)
	b.mu.Unlock()
	b.reg.Gauge(MetricSubscribers, b.labels...).Set(float64(n))
	return sub
}

// Events is the subscription's delivery channel; it is closed by Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events were dropped because this
// subscription's channel was full.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close unregisters the subscription and closes its channel. Idempotent.
func (s *Subscription) Close() {
	s.b.mu.Lock()
	if s.closed {
		s.b.mu.Unlock()
		return
	}
	s.closed = true
	delete(s.b.subs, s)
	n := len(s.b.subs)
	// Closing under the lock is safe: publishes send under the same
	// lock, and the subscription is already out of the map.
	close(s.ch)
	s.b.mu.Unlock()
	s.b.reg.Gauge(MetricSubscribers, s.b.labels...).Set(float64(n))
}

// Subscribers returns the live subscription count.
func (b *Buffer) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}
