package serve

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"routinglens/internal/core"
	"routinglens/internal/netgen"
	"routinglens/internal/simroute"
)

// TestReloadReuseMatchesFreshServer reloads one network through a chain
// of edits like perfbench's: each replaces the previous edit's static
// route with one to a fresh /32 on another router. After each reload,
// which copies the serving generation's fixpoint for every prefix the
// edit left alone, every endpoint must answer exactly as a server that
// analyzed the edited directory from nothing, seq and load time aside.
// net26's route-maps set and match tags, so its fixpoint depends on the
// order routes arrive in.
func TestReloadReuseMatchesFreshServer(t *testing.T) {
	g := netgen.GenerateCorpus(2004).ByName("net26")
	dir := filepath.Join(t.TempDir(), "net26")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for h := range g.Configs {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		if err := os.WriteFile(filepath.Join(dir, h+".cfg"), []byte(g.Configs[h]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	serverFor := func() (*Server, *httptest.Server) {
		s := newTestServer(t, func(cfg *Config) { cfg.Nets = []NetSource{{Name: "net26", Dir: dir}} })
		mustReload(t, s)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts
	}
	s, ts := serverFor()
	rng := rand.New(rand.NewPCG(26, 2004))
	edited := ""
	for step := 1; step <= 4; step++ {
		if edited != "" {
			writeConfig(t, dir, edited, g.Configs[edited])
		}
		edited = hosts[rng.IntN(len(hosts))]
		route := fmt.Sprintf("198.18.0.%d", step)
		writeConfig(t, dir, edited, g.Configs[edited]+"ip route "+route+" 255.255.255.255 Null0\n")
		mustReload(t, s)
		st := soleNet(t, s).State()
		if st.Reach.Simulated < 1 || st.Reach.Simulated > 2 {
			t.Errorf("step %d: the reload simulated %d of %d prefixes, want 1 or 2",
				step, st.Reach.Simulated, st.Reach.Sim.Prefixes())
		}
		_, fts := serverFor()

		paths := []string{"/summary", "/whatif", "/reach"}
		for _, h := range hosts {
			paths = append(paths, "/pathway?router="+h)
		}
		blocks := st.Res.Design.AddressSpace.RootPrefixes()
		for _, src := range blocks {
			paths = append(paths, "/reach?src="+url.QueryEscape(src.String())+"&dst="+url.QueryEscape(route+"/32"))
			for _, dst := range blocks {
				paths = append(paths, "/reach?src="+url.QueryEscape(src.String())+"&dst="+url.QueryEscape(dst.String()))
			}
		}
		for _, p := range paths {
			got, want := answerBody(t, ts.URL+"/v1/nets/net26"+p), answerBody(t, fts.URL+"/v1/nets/net26"+p)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("step %d (%s edited): %s\n reused %v\n fresh  %v", step, edited, p, got, want)
			}
		}
	}
}

func writeConfig(t *testing.T, dir, host, text string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, host+".cfg"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
}

// answerBody fetches one 200 answer and decodes its body without the
// fields that differ between two servers of one design: seq and load
// time. Trace IDs travel in headers, which it drops.
func answerBody(t *testing.T, u string) map[string]any {
	t.Helper()
	code, m, _ := get(t, u)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d %v", u, code, m)
	}
	m = bodyWithoutTimes(t, m)
	delete(m, "seq")
	return m
}

// TestSupersededGenerationIsCollected pins that a reload keeps nothing
// of the generation it replaced: each reload's analysis and simulation
// reuse the serving one's, but once three more generations have been
// published, the first one's analysis result and simulation must be
// garbage.
func TestSupersededGenerationIsCollected(t *testing.T) {
	s, edit := newEditableServer(t, nil)
	collected := make(chan struct{}, 2)
	func() {
		mustReload(t, s)
		st := soleNet(t, s).State()
		runtime.SetFinalizer(st.Res, func(*core.Result) { collected <- struct{}{} })
		runtime.SetFinalizer(st.Reach.Sim, func(*simroute.Sim) { collected <- struct{}{} })
	}()
	for i := 0; i < 3; i++ {
		edit()
		mustReload(t, s)
	}
	if seq := soleNet(t, s).State().Seq; seq != 4 {
		t.Fatalf("serving seq %d after four loads, want 4", seq)
	}
	deadline := time.After(10 * time.Second)
	for n := 0; n < 2; {
		runtime.GC()
		select {
		case <-collected:
			n++
		case <-deadline:
			t.Fatal("generation 1's analysis result or simulation is still reachable after three reloads")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
