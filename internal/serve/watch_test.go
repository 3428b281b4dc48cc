package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"routinglens/internal/core"
	"routinglens/internal/events"
	"routinglens/internal/paperexample"
)

// driftingServer builds a Server whose one network, "paper", loads
// through a hook that analyzes a mutable in-memory copy of the
// paper-example configs; the returned drift function applies a
// design-changing edit (a new router joining ospf 64), so the next
// reload produces a non-empty design diff.
func driftingServer(t *testing.T, mutate func(*Config)) (*Server, func()) {
	t.Helper()
	an := core.NewAnalyzer()
	var mu sync.Mutex
	configs := paperexample.Configs()
	s := newTestServer(t, func(c *Config) {
		c.Nets = []NetSource{{Name: "paper", Load: func(ctx context.Context) (*core.Result, error) {
			mu.Lock()
			snap := make(map[string]string, len(configs))
			for k, v := range configs {
				snap[k] = v
			}
			mu.Unlock()
			return an.AnalyzeConfigsResult(ctx, "paper", snap)
		}}}
		if mutate != nil {
			mutate(c)
		}
	})
	drift := func() {
		mu.Lock()
		defer mu.Unlock()
		configs["r8"] = "hostname r8\ninterface Ethernet0\n ip address 10.1.0.9 255.255.255.252\nrouter ospf 64\n network 10.1.0.8 0.0.0.3 area 0\n"
		configs["r1"] = configs["r1"] + "interface Ethernet2\n ip address 10.1.0.10 255.255.255.252\nrouter ospf 64\n network 10.1.0.8 0.0.0.3 area 0\n"
	}
	return s, drift
}

// sseFrame is one decoded server-sent-events frame (or comment line).
type sseFrame struct {
	id      string
	event   string
	data    string
	comment string
}

// openWatch connects to a watch URL and decodes its frames onto a
// channel; the returned cancel tears the connection down. Comment lines
// (heartbeats) arrive as frames with only comment set.
func openWatch(t *testing.T, url, lastEventID string) (<-chan sseFrame, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatalf("watch request: %v", err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatalf("watch connect: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("watch: got %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		cancel()
		t.Fatalf("watch Content-Type = %q, want text/event-stream", ct)
	}
	ch := make(chan sseFrame, 1024)
	go func() {
		defer resp.Body.Close()
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		var cur sseFrame
		pending := false
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if pending {
					ch <- cur
				}
				cur, pending = sseFrame{}, false
			case strings.HasPrefix(line, ":"):
				ch <- sseFrame{comment: strings.TrimSpace(line[1:])}
			case strings.HasPrefix(line, "id: "):
				cur.id, pending = line[len("id: "):], true
			case strings.HasPrefix(line, "event: "):
				cur.event, pending = line[len("event: "):], true
			case strings.HasPrefix(line, "data: "):
				cur.data, pending = line[len("data: "):], true
			}
		}
	}()
	return ch, cancel
}

// nextFrame receives frames until pred matches, skipping the rest;
// fails the test after timeout.
func nextFrame(t *testing.T, ch <-chan sseFrame, timeout time.Duration, pred func(sseFrame) bool) sseFrame {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case f, ok := <-ch:
			if !ok {
				t.Fatal("watch stream closed before the expected frame")
			}
			if pred(f) {
				return f
			}
		case <-deadline:
			t.Fatalf("no matching frame within %v", timeout)
		}
	}
}

// decodeEvent parses one frame's data as an events.Event with a generic
// payload.
func decodeEvent(t *testing.T, f sseFrame) (events.Event, map[string]any) {
	t.Helper()
	var ev struct {
		Cursor  uint64         `json:"cursor"`
		Type    string         `json:"type"`
		Payload map[string]any `json:"payload"`
	}
	if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
		t.Fatalf("frame data %q: %v", f.data, err)
	}
	return events.Event{Cursor: ev.Cursor, Type: events.Type(ev.Type)}, ev.Payload
}

// eventsPage fetches one events page as typed JSON.
func eventsPage(t *testing.T, url string) (resp struct {
	Oldest    uint64 `json:"oldest"`
	Latest    uint64 `json:"latest"`
	Next      uint64 `json:"next"`
	Truncated bool   `json:"truncated"`
	Events    []struct {
		Cursor  uint64         `json:"cursor"`
		Type    string         `json:"type"`
		Payload map[string]any `json:"payload"`
	} `json:"events"`
}) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp
}

// TestDesignDriftObservableOnBothSurfaces is the PR's core acceptance
// criterion: a design-changing reload yields at least one structured
// design-diff event, observable both by cursor on the events endpoint
// and live on a watch subscription opened before the reload happened.
func TestDesignDriftObservableOnBothSurfaces(t *testing.T) {
	s, drift := driftingServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The watcher connects BEFORE the drifting reload.
	frames, cancel := openWatch(t, ts.URL+"/v1/nets/paper/watch", "")
	defer cancel()
	// It first replays the initial load's generation.swap from the ring.
	f := nextFrame(t, frames, 5*time.Second, func(f sseFrame) bool { return f.event == string(EvtSwap) })
	if _, p := decodeEvent(t, f); p["seq"].(float64) != 1 {
		t.Errorf("first swap seq = %v, want 1", p["seq"])
	}

	drift()
	mustReload(t, s)

	// Live path: the subscriber sees swap then design.diff.
	f = nextFrame(t, frames, 5*time.Second, func(f sseFrame) bool { return f.event == string(EvtDesignDiff) })
	ev, payload := decodeEvent(t, f)
	if payload["from_seq"].(float64) != 1 || payload["to_seq"].(float64) != 2 {
		t.Errorf("diff seqs = %v -> %v, want 1 -> 2", payload["from_seq"], payload["to_seq"])
	}
	delta, ok := payload["delta"].(map[string]any)
	if !ok {
		t.Fatalf("diff payload has no delta: %v", payload)
	}
	added, _ := delta["routers_added"].([]any)
	if len(added) != 1 || added[0] != "r8" {
		t.Errorf("delta routers_added = %v, want [r8]", added)
	}
	if comps, _ := delta["compartments"].([]any); len(comps) == 0 {
		t.Errorf("delta has no compartment changes: %v", delta)
	}
	// A per-compartment event follows with the same generation pair.
	cf := nextFrame(t, frames, 5*time.Second, func(f sseFrame) bool { return f.event == string(EvtCompartment) })
	if _, cp := decodeEvent(t, cf); cp["to_seq"].(float64) != 2 {
		t.Errorf("compartment event to_seq = %v, want 2", cp["to_seq"])
	}

	// Cursor path: the same diff event is readable by cursor on
	// the events endpoint, at the exact cursor the stream frame carried.
	page := eventsPage(t, ts.URL+"/v1/nets/paper/events")
	var found bool
	for _, pe := range page.Events {
		if pe.Type == string(EvtDesignDiff) && pe.Cursor == ev.Cursor {
			found = true
		}
	}
	if !found {
		t.Fatalf("design.diff at cursor %d not on the events page (%d events, latest %d)",
			ev.Cursor, len(page.Events), page.Latest)
	}
	// And resuming from just before that cursor returns it first.
	resume := eventsPage(t, ts.URL+"/v1/nets/paper/events?since="+strconv.FormatUint(ev.Cursor-1, 10))
	if len(resume.Events) == 0 || resume.Events[0].Cursor != ev.Cursor {
		t.Errorf("resume at %d: first event %+v", ev.Cursor-1, resume.Events)
	}
	if resume.Truncated {
		t.Error("resume within the ring reported truncated")
	}
}

func TestEventsEndpointValidation(t *testing.T) {
	s := newTestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, bad := range []string{"?since=abc", "?since=-1", "?limit=0", "?limit=9999", "?limit=x"} {
		code, _, _ := get(t, ts.URL+"/v1/nets/example/events"+bad)
		if code != http.StatusBadRequest {
			t.Errorf("events%s: got %d, want 400", bad, code)
		}
	}
	page := eventsPage(t, ts.URL+"/v1/nets/example/events?limit=1")
	if len(page.Events) != 1 || page.Next != page.Events[0].Cursor {
		t.Errorf("limit=1 page: %+v", page)
	}
}

// TestEventsTruncationSignaled: a cursor older than the ring must be
// reported as truncation — never silently skipped — on both surfaces.
func TestEventsTruncationSignaled(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.EventsBuffer = 4 })
	mustReload(t, s) // cursor 1: generation.swap
	for i := 0; i < 6; i++ {
		s.Net("example").Events().Publish(EvtShed, shedPayload{Count: 1})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	page := eventsPage(t, ts.URL+"/v1/nets/example/events?since=1")
	if !page.Truncated {
		t.Fatalf("since=1 with oldest=%d: truncated=false", page.Oldest)
	}
	if page.Oldest <= 2 {
		t.Fatalf("ring of 4 after 7 events: oldest = %d", page.Oldest)
	}
	if len(page.Events) == 0 || page.Events[0].Cursor != page.Oldest {
		t.Errorf("truncated page restarts at %v, want oldest %d", page.Events, page.Oldest)
	}

	// The watch stream synthesizes an explicit stream.truncated event.
	frames, cancel := openWatch(t, ts.URL+"/v1/nets/example/watch?since=1", "")
	defer cancel()
	f := nextFrame(t, frames, 5*time.Second, func(f sseFrame) bool { return f.comment == "" })
	if f.event != string(EvtTruncated) {
		t.Fatalf("first frame = %q, want %s", f.event, EvtTruncated)
	}
	if f.id != "" {
		t.Errorf("synthesized truncation frame carries id %q; it must not", f.id)
	}
	var p struct {
		Payload truncatedPayload `json:"payload"`
	}
	if err := json.Unmarshal([]byte(f.data), &p); err != nil || p.Payload.RequestedCursor != 1 {
		t.Errorf("truncation payload = %+v (err %v)", p.Payload, err)
	}
	// The replay then restarts from the oldest survivor.
	f = nextFrame(t, frames, 5*time.Second, func(f sseFrame) bool { return f.comment == "" })
	if f.id != strconv.FormatUint(page.Oldest, 10) {
		t.Errorf("post-truncation replay starts at id %q, want %d", f.id, page.Oldest)
	}
}

// TestWatchHeartbeatAndResume: idle streams carry heartbeat comments,
// and reconnecting with Last-Event-ID replays exactly the missed tail.
func TestWatchHeartbeatAndResume(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.WatchHeartbeat = 30 * time.Millisecond })
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	frames, cancel := openWatch(t, ts.URL+"/v1/nets/example/watch", "")
	nextFrame(t, frames, 5*time.Second, func(f sseFrame) bool { return f.event == string(EvtSwap) })
	nextFrame(t, frames, 5*time.Second, func(f sseFrame) bool { return f.comment == "heartbeat" })
	cancel()

	// Publish two more events while disconnected, then resume from the
	// swap event's cursor: both arrive, in order, nothing duplicated.
	evts := s.Net("example").Events()
	evts.Publish(EvtShed, shedPayload{Count: 3})
	evts.Publish(EvtCachePressure, cachePressurePayload{Evicted: 2})
	frames, cancel = openWatch(t, ts.URL+"/v1/nets/example/watch", "1")
	defer cancel()
	f := nextFrame(t, frames, 5*time.Second, func(f sseFrame) bool { return f.comment == "" })
	if f.event != string(EvtShed) || f.id != "2" {
		t.Errorf("first resumed frame = %s id %s, want %s id 2", f.event, f.id, EvtShed)
	}
	f = nextFrame(t, frames, 5*time.Second, func(f sseFrame) bool { return f.comment == "" })
	if f.event != string(EvtCachePressure) || f.id != "3" {
		t.Errorf("second resumed frame = %s id %s, want %s id 3", f.event, f.id, EvtCachePressure)
	}
}

// TestWatchSubscriberDisconnect: a dropped watch connection unregisters
// its subscription (satellite 3: disconnect mid-stream).
func TestWatchSubscriberDisconnect(t *testing.T) {
	s := newTestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	evts := s.Net("example").Events()
	frames, cancel := openWatch(t, ts.URL+"/v1/nets/example/watch", "")
	nextFrame(t, frames, 5*time.Second, func(f sseFrame) bool { return f.event == string(EvtSwap) })
	if n := evts.Subscribers(); n != 1 {
		t.Fatalf("subscribers while connected = %d, want 1", n)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for evts.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription leaked after disconnect: %d live", evts.Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if g := s.reg.Gauge(events.MetricSubscribers, lnet("example")).Value(); g != 0 {
		t.Errorf("%s = %v after disconnect, want 0", events.MetricSubscribers, g)
	}
}

// TestEventsOrderingUnderConcurrentReloads (satellite 3): cursors stay
// a total order and swap events observe strictly increasing generation
// seqs while reloads race.
func TestEventsOrderingUnderConcurrentReloads(t *testing.T) {
	s := newTestServer(t, freshEachLoad)
	mustReload(t, s)
	nw := s.Net("example")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if err := nw.Reload(context.Background()); err != nil {
					t.Errorf("reload: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	evs, _, truncated := nw.Events().Since(0, 0)
	if truncated {
		t.Fatal("default ring truncated 21 events")
	}
	var prevCursor uint64
	var prevSeq float64
	swaps := 0
	for _, ev := range evs {
		if ev.Cursor <= prevCursor {
			t.Fatalf("cursor order violated: %d after %d", ev.Cursor, prevCursor)
		}
		prevCursor = ev.Cursor
		if ev.Type != EvtSwap {
			continue
		}
		swaps++
		seq := float64(ev.Payload.(swapPayload).Seq)
		if seq <= prevSeq {
			t.Fatalf("swap seq order violated: %v after %v", seq, prevSeq)
		}
		prevSeq = seq
	}
	if swaps != 21 {
		t.Errorf("swap events = %d, want 21 (1 initial + 20 reloads)", swaps)
	}
}

// TestWatchDuringConcurrentReloads is the tier-2 stress target (run
// with -race -count=3): multiple live watchers each see a
// cursor-ordered stream while reloads and queries race underneath.
func TestWatchDuringConcurrentReloads(t *testing.T) {
	s := newTestServer(t, freshEachLoad)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const watchers, reloaders, reloadsEach = 3, 2, 5
	type watcher struct {
		frames <-chan sseFrame
		cancel context.CancelFunc
	}
	ws := make([]watcher, watchers)
	for i := range ws {
		frames, cancel := openWatch(t, ts.URL+"/v1/nets/example/watch", "")
		ws[i] = watcher{frames, cancel}
		defer cancel()
	}

	var wg sync.WaitGroup
	for g := 0; g < reloaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reloadsEach; i++ {
				if err := s.Net("example").Reload(context.Background()); err != nil {
					t.Errorf("reload: %v", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			code, _, _ := get(t, ts.URL+"/v1/nets/example/summary")
			if code != http.StatusOK {
				t.Errorf("summary under reload churn: %d", code)
			}
		}
	}()
	wg.Wait()

	wantSwaps := 1 + reloaders*reloadsEach
	for i, w := range ws {
		var prev uint64
		swaps := 0
		deadline := time.After(10 * time.Second)
		for swaps < wantSwaps {
			select {
			case f, ok := <-w.frames:
				if !ok {
					t.Fatalf("watcher %d: stream closed at %d/%d swaps", i, swaps, wantSwaps)
				}
				if f.comment != "" || f.id == "" {
					continue
				}
				cur, err := strconv.ParseUint(f.id, 10, 64)
				if err != nil {
					t.Fatalf("watcher %d: bad frame id %q", i, f.id)
				}
				if cur <= prev {
					t.Fatalf("watcher %d: cursor %d after %d", i, cur, prev)
				}
				prev = cur
				if f.event == string(EvtSwap) {
					swaps++
				}
			case <-deadline:
				t.Fatalf("watcher %d: saw %d/%d swap events", i, swaps, wantSwaps)
			}
		}
	}
}
