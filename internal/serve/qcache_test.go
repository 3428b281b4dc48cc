package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"routinglens/internal/telemetry"
)

// rawGet returns status, the exact body bytes, and headers — the query
// cache replays responses byte for byte, so tests compare bytes, not
// re-marshaled JSON.
func rawGet(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestQueryCacheHitReplaysResponse: the second identical query is
// served from the per-generation cache — marked X-Cache: hit, counted,
// and byte-identical to the computed response.
func TestQueryCacheHitReplaysResponse(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, func(c *Config) { c.Registry = reg })
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, first, h := rawGet(t, ts.URL+"/v1/nets/example/summary")
	if code != http.StatusOK {
		t.Fatalf("first GET: status %d", code)
	}
	if h.Get("X-Cache") != "" {
		t.Errorf("first GET marked %q, want no X-Cache header", h.Get("X-Cache"))
	}
	code, second, h := rawGet(t, ts.URL+"/v1/nets/example/summary")
	if code != http.StatusOK {
		t.Fatalf("second GET: status %d", code)
	}
	if h.Get("X-Cache") != "hit" {
		t.Errorf("second GET X-Cache = %q, want hit", h.Get("X-Cache"))
	}
	if string(first) != string(second) {
		t.Errorf("replayed body differs:\n%s\nvs\n%s", first, second)
	}
	if hits := reg.Counter(MetricQueryCacheHits, telemetry.L("endpoint", "summary")).Value(); hits != 1 {
		t.Errorf("hit counter = %d, want 1", hits)
	}

	// Error responses are never cached: a retried bad query recomputes.
	for i := 0; i < 2; i++ {
		code, _, h := rawGet(t, ts.URL+"/v1/nets/example/pathway?router=no-such-router")
		if code != http.StatusNotFound {
			t.Fatalf("bad pathway try %d: status %d, want 404", i, code)
		}
		if h.Get("X-Cache") == "hit" {
			t.Error("a 404 was served from the query cache")
		}
	}
}

// TestQueryCacheInvalidatedOnReload: after a generation swap the same
// query recomputes against the new design — a cached response from the
// previous generation is never replayed. A reload of unchanged input
// swaps nothing, so its cache keeps answering.
func TestQueryCacheInvalidatedOnReload(t *testing.T) {
	s, edit := newEditableServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seqOf := func(body []byte) float64 {
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		return m["seq"].(float64)
	}

	rawGet(t, ts.URL+"/v1/nets/example/summary") // compute and cache under generation 1
	_, body, h := rawGet(t, ts.URL+"/v1/nets/example/summary")
	if h.Get("X-Cache") != "hit" || seqOf(body) != 1 {
		t.Fatalf("warm-up: X-Cache=%q seq=%v, want hit/1", h.Get("X-Cache"), seqOf(body))
	}

	// An unchanged reload keeps the generation and its cache.
	mustReload(t, s)
	_, body, h = rawGet(t, ts.URL+"/v1/nets/example/summary")
	if h.Get("X-Cache") != "hit" || seqOf(body) != 1 {
		t.Fatalf("after an unchanged reload: X-Cache=%q seq=%v, want hit/1", h.Get("X-Cache"), seqOf(body))
	}

	edit()
	mustReload(t, s)
	_, body, h = rawGet(t, ts.URL+"/v1/nets/example/summary")
	if h.Get("X-Cache") == "hit" {
		t.Error("first query after swap was served from the dead generation's cache")
	}
	if got := seqOf(body); got != 2 {
		t.Errorf("post-swap seq = %v, want 2", got)
	}
}

// TestQueryCacheDisabled: a negative QueryCacheSize turns the layer off
// entirely — every request computes and nothing is ever marked a hit.
func TestQueryCacheDisabled(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, func(c *Config) {
		c.Registry = reg
		c.QueryCacheSize = -1
	})
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		code, _, h := rawGet(t, ts.URL+"/v1/nets/example/summary")
		if code != http.StatusOK {
			t.Fatalf("GET %d: status %d", i, code)
		}
		if h.Get("X-Cache") != "" {
			t.Errorf("GET %d carried X-Cache = %q with the cache disabled", i, h.Get("X-Cache"))
		}
	}
	if hits := reg.Counter(MetricQueryCacheHits, telemetry.L("endpoint", "summary")).Value(); hits != 0 {
		t.Errorf("hit counter = %d with the cache disabled, want 0", hits)
	}
}

// TestConcurrentQueriesAcrossSwapWithQueryCache is the cached variant
// of TestConcurrentQueriesDuringReload: eight clients hammer the /v1
// endpoints — repeating queries, so the cache serves plenty of hits —
// while five reloads swap generations under them. Every response must
// be a 200 whose seq is a generation that existed when it was pinned;
// a hit stamped with a seq newer than the querier has seen would mean
// the swap leaked a previous generation's response forward.
func TestConcurrentQueriesAcrossSwapWithQueryCache(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, edit := newEditableServer(t, func(c *Config) { c.Registry = reg })
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	urls := []string{
		"/v1/nets/example/summary", "/v1/nets/example/pathway?router=r1", "/v1/nets/example/reach",
		"/v1/nets/example/reach?src=10.10.1.0/24&dst=10.10.2.0/24", "/v1/nets/example/whatif",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := urls[(g+i)%len(urls)]
				resp, err := http.Get(ts.URL + u)
				if err != nil {
					select {
					case errs <- fmt.Sprintf("%s: %v", u, err):
					default:
					}
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("%s: status %d", u, resp.StatusCode):
					default:
					}
					return
				}
				var m map[string]any
				if err := json.Unmarshal(body, &m); err != nil {
					select {
					case errs <- fmt.Sprintf("%s: bad JSON: %v", u, err):
					default:
					}
					return
				}
				if seq, ok := m["seq"].(float64); !ok || seq < 1 || seq > 6 {
					select {
					case errs <- fmt.Sprintf("%s: seq %v outside the generations that ever existed", u, m["seq"]):
					default:
					}
					return
				}
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		edit()
		mustReload(t, s)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("query across cached swap: %s", e)
	}
	if st := soleNet(t, s).State(); st == nil || st.Seq != 6 {
		t.Errorf("final generation = %v, want 6", st)
	}
	// The cache must still engage on the surviving generation: a repeat
	// query against generation 6 replays. (Hits during the swap storm are
	// timing-dependent, so the engagement check is made deterministic.)
	rawGet(t, ts.URL+"/v1/nets/example/summary")
	_, _, h := rawGet(t, ts.URL+"/v1/nets/example/summary")
	if h.Get("X-Cache") != "hit" {
		t.Error("query cache did not engage on the final generation")
	}
}
