package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"routinglens/internal/compress"
	"routinglens/internal/core"
	"routinglens/internal/netgen"
)

// TestCompressServesIdenticalAnswers serves one provider-tier network
// twice, plain and with Config.Compress, and requires byte-identical
// /v1/nets/{net}/reach and /v1/nets/{net}/whatif bodies: a quotiented
// server that answers differently is broken, not fast. The compressed
// server's quotient gauges must also show a real reduction.
func TestCompressServesIdenticalAnswers(t *testing.T) {
	g := netgen.GenerateProvider(1, 138) // two pods
	an := core.NewAnalyzer()
	load := func(ctx context.Context) (*core.Result, error) {
		return an.AnalyzeConfigsResult(ctx, g.Name, g.Configs)
	}
	endpoints := []string{"reach", "whatif"}
	bodies := make(map[bool][][]byte)
	var quotiented *Server
	for _, on := range []bool{false, true} {
		s := newTestServer(t, func(c *Config) {
			c.Dir = ""
			c.Load = load
			c.DefaultNet = g.Name
			c.Compress = on
			c.QueryCacheSize = -1
		})
		mustReload(t, s)
		ts := httptest.NewServer(s.Handler())
		for _, ep := range endpoints {
			resp, err := http.Get(ts.URL + "/v1/nets/" + g.Name + "/" + ep)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compress=%v %s: status %d: %s", on, ep, resp.StatusCode, body)
			}
			bodies[on] = append(bodies[on], body)
		}
		ts.Close()
		if on {
			quotiented = s
		}
	}
	for i, ep := range endpoints {
		if !bytes.Equal(bodies[false][i], bodies[true][i]) {
			t.Errorf("/v1/nets/%s/%s differs between the plain and the quotiented server", g.Name, ep)
		}
	}
	routers := quotiented.reg.Gauge(compress.MetricRouters, lnet(g.Name)).Value()
	classes := quotiented.reg.Gauge(compress.MetricClasses, lnet(g.Name)).Value()
	if routers != float64(g.Routers) || classes <= 0 || classes >= routers {
		t.Errorf("quotient gauges: %v routers -> %v classes, want %d routers and fewer classes",
			routers, classes, g.Routers)
	}
}
