package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestBadQueryParamsGetEnvelope audits every hand-parsed query parameter
// outside the data-plane Query parser: junk, negative, and overflow
// values must all come back as a 400 carrying the uniform
// {error, code, trace_id} envelope — with a non-empty trace_id even
// though these routes skip the data-plane trace store.
func TestBadQueryParamsGetEnvelope(t *testing.T) {
	s := newTestServer(t, nil)
	mustReload(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		url  string
		hdr  map[string]string
	}{
		{name: "events since junk", url: "/v1/nets/example/events?since=abc"},
		{name: "events since negative", url: "/v1/nets/example/events?since=-1"},
		{name: "events since overflow", url: "/v1/nets/example/events?since=99999999999999999999999999"},
		{name: "events limit junk", url: "/v1/nets/example/events?limit=ten"},
		{name: "events limit zero", url: "/v1/nets/example/events?limit=0"},
		{name: "events limit negative", url: "/v1/nets/example/events?limit=-5"},
		{name: "events limit too large", url: "/v1/nets/example/events?limit=501"},
		{name: "events limit overflow", url: "/v1/nets/example/events?limit=99999999999999999999999999"},
		{name: "watch since junk", url: "/v1/nets/example/watch?since=xyz"},
		{name: "watch since negative", url: "/v1/nets/example/watch?since=-2"},
		{name: "watch since overflow", url: "/v1/nets/example/watch?since=99999999999999999999999999"},
		{name: "watch last-event-id junk", url: "/v1/nets/example/watch",
			hdr: map[string]string{"Last-Event-ID": "not-a-cursor"}},
		{name: "watch last-event-id negative", url: "/v1/nets/example/watch",
			hdr: map[string]string{"Last-Event-ID": "-3"}},
		{name: "traces limit junk", url: "/debug/traces?limit=abc"},
		{name: "traces limit zero", url: "/debug/traces?limit=0"},
		{name: "traces limit negative", url: "/debug/traces?limit=-1"},
		{name: "traces limit too large", url: "/debug/traces?limit=1001"},
		{name: "traces limit overflow", url: "/debug/traces?limit=99999999999999999999999999"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("GET", ts.URL+tc.url, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range tc.hdr {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("got %d, want 400", resp.StatusCode)
			}
			var m map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Fatalf("decoding error body: %v", err)
			}
			if m["code"] != codeBadRequest {
				t.Errorf("code = %v, want %q", m["code"], codeBadRequest)
			}
			if msg, _ := m["error"].(string); msg == "" {
				t.Errorf("error message is empty (%v)", m)
			}
			if id, _ := m["trace_id"].(string); id == "" {
				t.Errorf("trace_id is empty (%v)", m)
			}
		})
	}
}
