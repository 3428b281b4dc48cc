package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"routinglens/perfbench/workload"
)

// generation tracks one network's serving generation as the clients
// know it: the last seq a reload committed, and whether a reload is in
// flight (a query racing it may see either generation).
type generation struct {
	committed atomic.Int64
	inflight  atomic.Bool
}

// maxKeptSamples bounds the queries kept for the traced replay.
const maxKeptSamples = 20000

// recorder collects every outcome of a run. All methods are safe for
// concurrent use.
type recorder struct {
	mu        sync.Mutex
	attempted int
	failed    int // non-200 answers other than shed
	shed      int // 429
	wrong     int // 200 with a wrong or inconsistent answer
	problems  []string
	// timing is set when the timed phase starts. Before it, during setup
	// and warm-up, answers are checked but not timed.
	timing      bool
	queryLat    []float64 // timed queries, seconds
	endpointLat map[string][]float64
	reloadLat   []float64
	answerLat   []float64
	reloads     int // reload POSTs completed in the timed phase
	queries     int // timed queries answered correctly
	samples     []workload.QuerySample
	// edits are every completed edit cycle's edit, warm-up included, and
	// editLat their reload round trips: the traced replay redoes them in
	// order from the first generation.
	edits   []workload.Edit
	editLat []float64
	// answers holds the first answer seen per (net, seq, query): every
	// later answer to the same question from the same generation must be
	// the same, cache hit or not, whichever daemon start gave it.
	answers map[string]answerRecord

	// parsed memoizes ParseAnswer by endpoint and body, so a repeated
	// answer costs the driver a hash instead of a JSON decode: on a
	// two-core host, client CPU is CPU the daemon does not get.
	parsedMu sync.Mutex
	parsed   map[[32]byte]parsedAnswer
}

type parsedAnswer struct {
	answer string
	seq    int64
}

type answerRecord struct {
	Query  workload.Query
	Seq    int64
	Answer string
}

func newRecorder() *recorder {
	return &recorder{endpointLat: map[string][]float64{}, answers: map[string]answerRecord{},
		parsed: map[[32]byte]parsedAnswer{}}
}

// parse returns q's canonical answer and generation from body.
func (r *recorder) parse(q workload.Query, body []byte) (parsedAnswer, error) {
	sum := sha256.Sum256(append([]byte(q.Endpoint+"\n"), body...))
	r.parsedMu.Lock()
	pa, ok := r.parsed[sum]
	r.parsedMu.Unlock()
	if ok {
		return pa, nil
	}
	answer, seq, err := workload.ParseAnswer(q, body)
	if err != nil {
		return pa, err
	}
	pa = parsedAnswer{answer, seq}
	r.parsedMu.Lock()
	r.parsed[sum] = pa
	r.parsedMu.Unlock()
	return pa, nil
}

// startTiming starts the timed phase.
func (r *recorder) startTiming() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timing = true
}

// problem keeps the first few problem descriptions for stderr. The
// caller holds r.mu.
func (r *recorder) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// client drives one daemon from one closed-loop client goroutine.
type client struct {
	http   *http.Client
	base   string
	corpus string
	nets   map[string]*workload.Net
	gens   map[string]*generation
	rec    *recorder
}

// get issues one query and returns status, body and cache-hit flag.
func (c *client) get(ctx context.Context, path string) (int, []byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header.Get("X-Cache") == "hit", err
}

// queryRole says which figures a query's latency feeds.
type queryRole int

const (
	// setupQuery is a setup's first answer: checked, not timed.
	setupQuery queryRole = iota
	// readBack is an edit cycle's first read-back, which answer_p50_s
	// times as a whole: it feeds the per-endpoint figures and the traced
	// replay, not the query latency pool.
	readBack
	// pooled is a query of the mix or a poll: it feeds everything.
	pooled
)

// query runs q, checks its answer, and records it by role. wantSeq > 0
// pins the generation the answer must come from; otherwise it must lie
// within what the network's reloads allow while the query was in
// flight. fresh marks an edit cycle's reach of its fresh /32, which must
// be reachable.
func (c *client) query(ctx context.Context, q workload.Query, wantSeq int64, fresh bool, role queryRole) {
	g := c.gens[q.Net]
	lo, racing := g.committed.Load(), g.inflight.Load()
	start := time.Now()
	status, body, hit, err := c.get(ctx, q.Path())
	lat := time.Since(start).Seconds()
	hi := g.committed.Load()
	if racing || g.inflight.Load() {
		hi++
	}
	if wantSeq > 0 {
		lo, hi = wantSeq, wantSeq
	}

	r := c.rec
	var pa parsedAnswer
	var perr error
	if err == nil && status == http.StatusOK {
		pa, perr = r.parse(q, body)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	switch {
	case err != nil:
		r.failed++
		r.problem("%s: %v", q.Path(), err)
		return
	case status == http.StatusTooManyRequests:
		r.shed++
		return
	case status != http.StatusOK:
		r.failed++
		r.problem("%s: status %d: %.200s", q.Path(), status, body)
		return
	case perr != nil:
		r.wrong++
		r.problem("%v", perr)
		return
	}
	answer, seq := pa.answer, pa.seq
	if seq < lo || seq > hi {
		r.wrong++
		r.problem("%s answered from generation %d, want %d..%d", q.Path(), seq, lo, hi)
		return
	}
	if msg := workload.Check(q, c.nets[q.Net], answer, fresh); msg != "" {
		r.wrong++
		r.problem("%s", msg)
		return
	}
	key := q.Net + "|" + strconv.FormatInt(seq, 10) + "|" + q.Path()
	if prev, ok := r.answers[key]; !ok {
		r.answers[key] = answerRecord{Query: q, Seq: seq, Answer: answer}
	} else if prev.Answer != answer {
		r.wrong++
		r.problem("%s gave two different answers from generation %d: %s, then %s", q.Path(), seq, prev.Answer, answer)
		return
	}
	if role == setupQuery || !r.timing {
		return
	}
	r.queries++
	if role == pooled {
		r.queryLat = append(r.queryLat, lat)
	}
	r.endpointLat[q.Endpoint] = append(r.endpointLat[q.Endpoint], lat)
	if len(r.samples) < maxKeptSamples {
		r.samples = append(r.samples, workload.QuerySample{Query: q, Seq: seq, Hit: hit, Latency: lat})
	}
}

// reloadResponse is the part of POST /v1/nets/NET/reload's body the
// checks read.
type reloadResponse struct {
	Result string `json:"result"`
	Seq    int64  `json:"seq"`
}

// pollRounds is how many more times an edit cycle re-asks its read-back
// queries, as a dashboard polling the new generation would; the query
// cache answers them. They give a reload workload a query latency pool
// of one kind of query, whose median and p90 hold steady between runs.
const pollRounds = 4

// editCycle is the operator's change: write the edit, reload the
// network, read every endpoint back from the new generation, then poll
// the same queries pollRounds more times.
func (c *client) editCycle(ctx context.Context, e workload.Edit) {
	g := c.gens[e.Net]
	r := c.rec
	start := time.Now()
	if err := e.Apply(filepath.Join(c.corpus, e.Net)); err != nil {
		r.mu.Lock()
		r.attempted++
		r.failed++
		r.problem("applying edit: %v", err)
		r.mu.Unlock()
		return
	}
	want := g.committed.Load() + 1
	g.inflight.Store(true)
	rstart := time.Now()
	status, body, err := c.post(ctx, "/v1/nets/"+e.Net+"/reload")
	reloadLat := time.Since(rstart).Seconds()
	var rr reloadResponse
	if err == nil {
		err = json.Unmarshal(body, &rr)
	}
	if err == nil && status == http.StatusOK && rr.Seq > 0 {
		g.committed.Store(rr.Seq)
	}
	g.inflight.Store(false)

	r.mu.Lock()
	r.attempted++
	ok := false
	switch {
	case err != nil:
		r.failed++
		r.problem("reload %s: %v", e.Net, err)
	case status != http.StatusOK:
		r.failed++
		r.problem("reload %s: status %d: %.200s", e.Net, status, body)
	case rr.Result != "swapped" || rr.Seq != want:
		r.wrong++
		r.problem("reload %s answered %s at seq %d, want swapped at %d", e.Net, rr.Result, rr.Seq, want)
	default:
		ok = true
		r.edits = append(r.edits, e)
		r.editLat = append(r.editLat, reloadLat)
		if r.timing {
			r.reloadLat = append(r.reloadLat, reloadLat)
			r.reloads++
		}
	}
	r.mu.Unlock()
	if !ok {
		return
	}
	answers := e.Answers(c.nets[e.Net])
	for _, q := range answers {
		c.query(ctx, q, want, q.Endpoint == "reach_block", readBack)
	}
	r.mu.Lock()
	if r.timing {
		r.answerLat = append(r.answerLat, time.Since(start).Seconds())
	}
	r.mu.Unlock()
	for i := 0; i < pollRounds; i++ {
		for _, q := range answers {
			c.query(ctx, q, want, q.Endpoint == "reach_block", pooled)
		}
	}
}

func (c *client) post(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(nil))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// drive runs one closed-loop client: it issues gen's operations back to
// back until the deadline passes, finishing the operation in flight.
func (c *client) drive(ctx context.Context, gen *workload.Generator, deadline time.Time) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		op := gen.Next()
		if op.Kind == workload.EditOp {
			c.editCycle(ctx, op.Edit)
		} else {
			c.query(ctx, op.Query, 0, false, pooled)
		}
	}
}

// newHTTPClient returns a client holding at most conns connections to
// the daemon.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 150 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
