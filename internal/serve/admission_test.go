package serve

import (
	"context"
	"errors"
	"strings"
	"testing"

	"routinglens/internal/core"
)

// TestCompartmentDeltaGuardrail: a reload that dissolves a routing
// compartment trips MaxCompartmentDelta, the candidate is quarantined
// with the compartment verdict, and the last-good generation keeps
// serving without degrading.
func TestCompartmentDeltaGuardrail(t *testing.T) {
	// Two compartments: an OSPF pair and a RIP pair.
	ospfA := "hostname a\ninterface Ethernet0\n ip address 10.0.0.1 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
	ospfB := "hostname b\ninterface Ethernet0\n ip address 10.0.0.2 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.0.0.3 area 0\n"
	ripC := "hostname c\ninterface Ethernet0\n ip address 10.1.0.1 255.255.255.252\nrouter rip\n network 10.0.0.0\n"
	ripD := "hostname d\ninterface Ethernet0\n ip address 10.1.0.2 255.255.255.252\nrouter rip\n network 10.0.0.0\n"
	configs := map[string]string{"a.cfg": ospfA, "b.cfg": ospfB, "c.cfg": ripC, "d.cfg": ripD}

	an := core.NewAnalyzer()
	s := newTestServer(t, func(c *Config) {
		c.Nets = []NetSource{{Name: "mem", Load: func(ctx context.Context) (*core.Result, error) {
			return an.AnalyzeConfigsResult(ctx, "mem", configs)
		}}}
		c.Admission = &AdmissionPolicy{MaxErrorDiags: -1, MaxCompartmentDelta: 0}
	})
	mustReload(t, s)
	nw := s.Net("mem")
	serving := nw.State()

	// The RIP routers lose their routing stanza: same router count, one
	// compartment dissolved.
	configs["c.cfg"] = "hostname c\ninterface Ethernet0\n ip address 10.1.0.1 255.255.255.252\n"
	configs["d.cfg"] = "hostname d\ninterface Ethernet0\n ip address 10.1.0.2 255.255.255.252\n"

	err := nw.Reload(context.Background())
	var admErr *AdmissionError
	if !errors.As(err, &admErr) {
		t.Fatalf("reload err = %v, want *AdmissionError", err)
	}
	found := false
	for _, r := range admErr.Reasons {
		if strings.Contains(r, "routing compartments") {
			found = true
		}
	}
	if !found {
		t.Errorf("rejection reasons %v lack the compartment verdict", admErr.Reasons)
	}
	if nw.State() != serving {
		t.Error("rejected candidate displaced the serving generation")
	}
	if nw.Degraded() {
		t.Error("admission rejection must not degrade the network")
	}
	rec := nw.Quarantine()
	if rec == nil {
		t.Fatal("no quarantine record after compartment rejection")
	}
	if len(rec.Reasons) != len(admErr.Reasons) {
		t.Errorf("quarantine reasons %v != rejection reasons %v", rec.Reasons, admErr.Reasons)
	}
}
