package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRouteTableGolden pins the daemon's full HTTP surface — every
// method, pattern, and endpoint name — against
// testdata/routes.golden. A route added, removed, or renamed is an API
// contract change: update the golden file deliberately with
//
//	UPDATE_GOLDEN=1 go test ./internal/serve -run TestRouteTableGolden
//
// and say so in the change description.
func TestRouteTableGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "routes.golden")
	got := RouteTable()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden route table (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("route table drifted from %s — an API contract change.\ngot:\n%s\nwant:\n%s\n"+
			"If intended, regenerate with UPDATE_GOLDEN=1.", goldenPath, got, want)
	}
}

// TestRouteTableInvariants enforces the structural rules the golden file
// alone cannot: each endpoint name belongs to one route (metrics, traces
// and fault sites key on it), every per-network route sits under
// /v1/nets/{net}/ and every fleet-wide route outside it, and every
// data-plane endpoint has a parameter spec (addNet resolves its metric
// handles from queryParams).
func TestRouteTableInvariants(t *testing.T) {
	seen := make(map[string]string) // endpoint -> pattern
	for _, rt := range routes {
		if prev, dup := seen[rt.endpoint]; dup {
			t.Errorf("endpoint %s names both %s and %s", rt.endpoint, prev, rt.pattern)
		}
		seen[rt.endpoint] = rt.pattern
		perNet := strings.HasPrefix(rt.pattern, "/v1/nets/{net}/")
		if want := rt.kind != routeGlobal; perNet != want {
			t.Errorf("route %s (kind %d): under /v1/nets/{net}/ = %v, want %v", rt.pattern, rt.kind, perNet, want)
		}
		if _, ok := queryParams[rt.endpoint]; ok != (rt.kind == routeQuery) {
			t.Errorf("route %s: has a parameter spec = %v, want %v", rt.pattern, ok, rt.kind == routeQuery)
		}
	}
}
