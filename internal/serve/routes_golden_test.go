package serve

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRouteTableGolden pins the daemon's full HTTP surface — every
// method, pattern, endpoint name, and deprecation alias — against
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
// alone cannot: every alias points at an existing canonical route of the
// same endpoint, and endpoint names match their path suffix (aliasLink
// builds Link headers from that equality).
func TestRouteTableInvariants(t *testing.T) {
	canonical := make(map[string]string) // pattern -> endpoint
	for _, rt := range routes {
		if rt.aliasOf == "" {
			canonical[rt.pattern] = rt.endpoint
		}
	}
	for _, rt := range routes {
		if rt.aliasOf == "" {
			continue
		}
		ep, ok := canonical[rt.aliasOf]
		if !ok {
			t.Errorf("alias %s points at %s, which is not a canonical route", rt.pattern, rt.aliasOf)
			continue
		}
		if ep != rt.endpoint {
			t.Errorf("alias %s (endpoint %s) points at %s (endpoint %s); endpoints must match",
				rt.pattern, rt.endpoint, rt.aliasOf, ep)
		}
		if want := "/v1/nets/{net}/" + rt.endpoint; rt.aliasOf != want {
			t.Errorf("alias %s: canonical pattern %s should be %s (Link headers derive from the endpoint name)",
				rt.pattern, rt.aliasOf, want)
		}
	}
}
