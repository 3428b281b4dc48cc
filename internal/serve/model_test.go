package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"routinglens/internal/events"
	"routinglens/internal/faultinject"
	"routinglens/internal/ingest"
	"routinglens/internal/telemetry"
)

// The operations of a FuzzReloadModel input. Every input is a sequence
// of two-byte steps: the first byte picks the operation (its low three
// bits) and a variant (the bits above); the second arms at most one
// fault for the step (decodeModelSteps).
const (
	opReload        = iota // POST /v1/nets/push/reload
	opPush                 // push an archive the gate admits
	opPushGutted           // push a one-router archive the gate rejects
	opPushForced           // push the one-router archive with ?force=1
	opPushMalformed        // push bytes that are no gzip stream
	opRollback             // POST /v1/nets/push/configs/rollback
	opEditSource           // add, change or remove r8 in the source directory
	opWatch                // the config watcher's reload
)

// maxModelSteps bounds one input's operation sequence.
const maxModelSteps = 24

// modelFaultSites are the sites a step may arm one error or panic at.
var modelFaultSites = []string{SiteAnalyze, ingest.SiteExtract, ingest.SitePromote, ingest.SiteRollback}

// modelStep is one decoded operation with the fault armed for it.
type modelStep struct {
	op, variant int
	fault       *faultinject.Rule
}

// decodeModelSteps turns fuzz input into at most maxModelSteps steps.
// A fault byte of 0 modulo 9 arms nothing; 1..8 arm an error (odd) or a
// panic (even) at modelFaultSites[(b-1)/2], firing once.
func decodeModelSteps(data []byte) []modelStep {
	var steps []modelStep
	for i := 0; i+1 < len(data) && len(steps) < maxModelSteps; i += 2 {
		st := modelStep{op: int(data[i] & 7), variant: int(data[i]>>3) % 4}
		if b := int(data[i+1]) % (2*len(modelFaultSites) + 1); b > 0 {
			kind := faultinject.KindError
			if b%2 == 0 {
				kind = faultinject.KindPanic
			}
			st.fault = &faultinject.Rule{Site: modelFaultSites[(b-1)/2], Kind: kind, Count: 1}
		}
		steps = append(steps, st)
	}
	return steps
}

// configSet is the content of one configuration directory: file name to
// body. Every file is one router, named after the file.
type configSet map[string]string

// key identifies the content, as the analyzer's content key does.
func (c configSet) key() string {
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s\x00%s\x00", n, c[n])
	}
	return b.String()
}

// with returns a copy of c with name set to body, or removed when body
// is empty.
func (c configSet) with(name, body string) configSet {
	out := make(configSet, len(c)+1)
	for k, v := range c {
		out[k] = v
	}
	if body == "" {
		delete(out, name)
	} else {
		out[name] = body
	}
	return out
}

// ospfRouter renders a one-interface router in OSPF area 0.
func ospfRouter(name, addr string) string {
	return "hostname " + name + "\ninterface Ethernet0\n ip address " + addr +
		" 255.255.255.252\nrouter ospf 1\n network 10.0.0.0 0.255.255.255 area 0\n"
}

// reloadModel is the reference for one directory-backed network behind
// the default admission gate (ReloadRetries 0, so every trigger is one
// attempt). Identical input ends unchanged, with or without a snapshot
// directory.
type reloadModel struct {
	src configSet // the source directory
	// store reports whether a push has created the generation store.
	// cur and prev are the store's current and retained directories: nil
	// stands for the source directory, whose content edits change, else
	// the fixed content of a promoted generation.
	store     bool
	cur, prev configSet
	hasPrev   bool

	serving               configSet // nil before the first load
	seq                   int64
	degraded, quarantined bool

	reloads, pushes map[string]int64
	rollbacks       int64
	events          map[events.Type]int
}

// modelEvents are the event types the model counts.
var modelEvents = []events.Type{EvtSwap, EvtDesignRejected, EvtReloadFailed,
	EvtReadyRecovered, EvtConfigPushed, EvtConfigRolledBack}

// active is the content reloads analyze.
func (m *reloadModel) active() configSet {
	if m.cur == nil {
		return m.src
	}
	return m.cur
}

// result predicts the outcome of one reload of cand.
func (m *reloadModel) result(cand configSet, force, push bool, fault *faultinject.Rule) string {
	armed := func(site string) bool { return fault != nil && fault.Site == site }
	switch {
	case armed(SiteAnalyze):
		return "error"
	case m.serving != nil && cand.key() == m.serving.key():
		return "unchanged"
	case m.serving != nil && !force && routerLossPct(m.serving, cand) > 50:
		return "rejected"
	case push && armed(ingest.SitePromote):
		return "error"
	}
	return "ok"
}

// routerLossPct is the share of serving's routers cand drops.
func routerLossPct(serving, cand configSet) float64 {
	removed := 0
	for name := range serving {
		if _, ok := cand[name]; !ok {
			removed++
		}
	}
	return 100 * float64(removed) / float64(len(serving))
}

// apply records a reload's outcome.
func (m *reloadModel) apply(result string, cand configSet, push bool) {
	m.reloads[result]++
	if push {
		label := result
		if result == "error" {
			label = "failed"
		}
		m.pushes[label]++
	}
	switch result {
	case "ok", "unchanged":
		if m.degraded {
			m.events[EvtReadyRecovered]++
		}
		m.degraded = false
		if result == "unchanged" {
			return
		}
		m.seq++
		m.serving = cand
		m.quarantined = false
		m.events[EvtSwap]++
		if push {
			m.prev, m.hasPrev, m.cur = m.cur, true, cand
			m.events[EvtConfigPushed]++
		}
	case "rejected":
		m.quarantined = true
		m.events[EvtDesignRejected]++
	case "error":
		m.degraded = true
		m.events[EvtReloadFailed]++
	}
}

// modelHarness drives one rlensd network and its model side by side.
// label names the server's configuration in failure messages.
type modelHarness struct {
	t     *testing.T
	label string
	s     *Server
	nw    *Network
	dir   string
	base  configSet
	m     *reloadModel
}

// do serves one request in-process.
func (h *modelHarness) do(method, target string, body []byte) (int, map[string]any) {
	rec := httptest.NewRecorder()
	h.s.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	var m map[string]any
	json.Unmarshal(rec.Body.Bytes(), &m)
	return rec.Code, m
}

// step runs one operation on rlensd and on the model, then checks that
// they agree.
func (h *modelHarness) step(i int, st modelStep) {
	t, m := h.t, h.m
	h.s.faults = nil
	if st.fault != nil {
		h.s.faults = faultinject.New(1, *st.fault)
	}
	armed := func(site string) bool { return st.fault != nil && st.fault.Site == site }
	what := fmt.Sprintf("%s: step %d (op %d, variant %d, fault %+v)", h.label, i, st.op, st.variant, st.fault)
	outcomesBefore := countEvents(h.nw, EvtSwap, EvtDesignRejected, EvtReloadFailed)
	wantOutcomes := 0
	switch st.op {
	case opReload, opWatch:
		cand := m.active()
		result := m.result(cand, false, false, st.fault)
		m.apply(result, cand, false)
		if result != "unchanged" {
			wantOutcomes = 1
		}
		if st.op == opWatch {
			err := h.nw.reload(context.Background(), reloadReq{trigger: "watch"}).err
			var adm *AdmissionError
			if (err == nil) != (result == "ok" || result == "unchanged") || errors.As(err, &adm) != (result == "rejected") {
				t.Fatalf("%s: watcher reload returned %v, model says %s", what, err, result)
			}
			break
		}
		code, body := h.do("POST", "/v1/nets/push/reload", nil)
		h.checkAnswer(what, code, body, result)
	case opPush, opPushGutted, opPushForced:
		cand := h.base
		switch {
		case st.op != opPush:
			cand = configSet{"r1.cfg": h.base["r1.cfg"]}
		case st.variant > 0:
			cand = cand.with("r7.cfg", ospfRouter("r7", fmt.Sprintf("10.1.9.%d", 4*st.variant+1)))
		}
		target := "/v1/nets/push/configs"
		if st.op == opPushForced {
			target += "?force=1"
		}
		m.store = true
		if armed(ingest.SiteExtract) {
			m.pushes["failed"]++
			code, body := h.do("POST", target, archiveOf(t, cand))
			if code != http.StatusInternalServerError || body["code"] != codeInternal {
				t.Fatalf("%s: push with a failing extraction: got %d %v, want 500 internal", what, code, body)
			}
			break
		}
		result := m.result(cand, st.op == opPushForced, true, st.fault)
		m.apply(result, cand, true)
		if result != "unchanged" {
			wantOutcomes = 1
		}
		code, body := h.do("POST", target, archiveOf(t, cand))
		h.checkAnswer(what, code, body, result)
	case opPushMalformed:
		m.store = true
		wantCode, wantErr, label := http.StatusBadRequest, codeBadArchive, "bad_archive"
		if armed(ingest.SiteExtract) {
			wantCode, wantErr, label = http.StatusInternalServerError, codeInternal, "failed"
		}
		m.pushes[label]++
		if code, body := h.do("POST", "/v1/nets/push/configs", []byte("no gzip stream")); code != wantCode || body["code"] != wantErr {
			t.Fatalf("%s: malformed push: got %d %v, want %d %s", what, code, body, wantCode, wantErr)
		}
	case opRollback:
		wantCode := http.StatusConflict
		switch {
		case m.store && armed(ingest.SiteRollback):
			wantCode = http.StatusInternalServerError
		case m.store && m.hasPrev:
			wantCode = http.StatusOK
			m.cur, m.prev = m.prev, m.cur
			m.rollbacks++
			m.events[EvtConfigRolledBack]++
		}
		if code, body := h.do("POST", "/v1/nets/push/configs/rollback", nil); code != wantCode {
			t.Fatalf("%s: rollback: got %d %v, want %d", what, code, body, wantCode)
		}
	case opEditSource:
		body := ""
		if st.variant > 0 {
			body = ospfRouter("r8", fmt.Sprintf("10.1.10.%d", 4*st.variant+1))
		}
		m.src = m.src.with("r8.cfg", body)
		p := filepath.Join(h.dir, "r8.cfg")
		if body == "" {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := countEvents(h.nw, EvtSwap, EvtDesignRejected, EvtReloadFailed) - outcomesBefore; got != wantOutcomes {
		t.Fatalf("%s: published %d of generation.swap, design.rejected and reload.failed, want %d", what, got, wantOutcomes)
	}
	h.check(what)
}

// checkAnswer compares a reload or push response with the model's
// outcome, after the model has applied it.
func (h *modelHarness) checkAnswer(what string, code int, body map[string]any, result string) {
	t, m := h.t, h.m
	type want struct {
		code   int
		result string
	}
	w := map[string]want{
		"ok":        {http.StatusOK, "swapped"},
		"unchanged": {http.StatusOK, "unchanged"},
		"rejected":  {http.StatusUnprocessableEntity, "rejected"},
		"error":     {http.StatusInternalServerError, "failed"},
	}[result]
	if code != w.code || body["result"] != w.result {
		t.Fatalf("%s: got %d %v, want %d result=%s", what, code, body, w.code, w.result)
	}
	seqKey := "seq"
	if code != http.StatusOK {
		seqKey = "serving_seq"
	}
	if seq, ok := body[seqKey]; ok != (m.seq > 0) || (ok && seq != float64(m.seq)) {
		t.Fatalf("%s: %s = %v, want %d", what, seqKey, body[seqKey], m.seq)
	}
}

// countEvents counts the network's retained events of the given types.
func countEvents(nw *Network, types ...events.Type) int {
	evs, _, _ := nw.Events().Since(0, 0)
	n := 0
	for _, ev := range evs {
		for _, typ := range types {
			if ev.Type == typ {
				n++
			}
		}
	}
	return n
}

// check compares rlensd's whole observable state with the model's.
func (h *modelHarness) check(what string) {
	t, m, nw, s := h.t, h.m, h.nw, h.s
	st := nw.State()
	switch {
	case m.seq == 0 && st != nil:
		t.Fatalf("%s: serving seq %d, model has no design", what, st.Seq)
	case m.seq > 0 && (st == nil || st.Seq != m.seq || len(st.Res.Design.Network.Devices) != len(m.serving)):
		t.Fatalf("%s: serving %+v, want seq %d with %d routers", what, st, m.seq, len(m.serving))
	}
	if nw.Degraded() != m.degraded || (nw.Quarantine() != nil) != m.quarantined {
		t.Fatalf("%s: degraded %v quarantined %v, want %v %v",
			what, nw.Degraded(), nw.Quarantine() != nil, m.degraded, m.quarantined)
	}
	for _, c := range []struct {
		metric string
		want   map[string]int64
	}{{MetricReloads, m.reloads}, {ingest.MetricPushes, m.pushes}} {
		for _, result := range []string{"ok", "unchanged", "rejected", "error", "failed", "bad_archive"} {
			if got := s.reg.Counter(c.metric, lnet("push"), telemetry.L("result", result)).Value(); got != c.want[result] {
				t.Fatalf("%s: %s{result=%s} = %d, want %d", what, c.metric, result, got, c.want[result])
			}
		}
	}
	if got := s.reg.Counter(ingest.MetricRollbacks, lnet("push")).Value(); got != m.rollbacks {
		t.Fatalf("%s: rollbacks_total = %d, want %d", what, got, m.rollbacks)
	}
	evs, _, _ := nw.Events().Since(0, 0)
	for _, typ := range modelEvents {
		if got := countEvents(nw, typ); got != m.events[typ] {
			t.Fatalf("%s: %d %s events, want %d", what, got, typ, m.events[typ])
		}
	}
	checkSwapChain(t, evs)
	checkNoStaging(t, filepath.Join(s.cfg.IngestDir, "push"))
	if t.Failed() {
		t.FailNow()
	}

	store := nw.peekStore()
	if (store != nil) != m.store {
		t.Fatalf("%s: generation store exists %v, want %v", what, store != nil, m.store)
	}
	wantDir := h.dir
	if store != nil {
		wantDir = store.Current()
	}
	if got := nw.activeDirPath(); got != wantDir {
		t.Fatalf("%s: reloads analyze %s, the generation store's current directory is %s", what, got, wantDir)
	}
	if got := configSet(dirFiles(t, wantDir)); got.key() != m.active().key() {
		t.Fatalf("%s: the active directory holds %d files, the model's %d differ", what, len(got), len(m.active()))
	}

	if m.seq == 0 {
		return
	}
	for _, p := range []string{"summary", "pathway?router=r1", "reach",
		"reach?src=10.10.1.0/24&dst=10.10.2.0/24", "whatif"} {
		code, body := h.do("GET", "/v1/nets/push/"+p, nil)
		if code != http.StatusOK || body["seq"] != float64(m.seq) {
			t.Fatalf("%s: %s: got %d seq=%v, want 200 from seq %d", what, p, code, body["seq"], m.seq)
		}
		if p == "summary" && body["routers"] != float64(len(m.serving)) {
			t.Fatalf("%s: summary routers = %v, want %d", what, body["routers"], len(m.serving))
		}
	}
}

// FuzzReloadModel checks rlensd's reload transaction against a small
// reference model of one directory-backed network, the way a protocol
// implementation is checked against its protocol model. Each input is a
// sequence of reloads, pushes (admitted, rejected, forced or malformed),
// rollbacks, source edits and watcher reloads, each with at most one
// error or panic armed at a reload or ingestion fault site. After every
// step rlensd must match the model: the serving seq, router count,
// degraded and quarantined flags, every reload, push and rollback
// counter and the event totals; contiguous published seqs; no staging
// directory left behind; reloads analyzing the generation store's
// current directory; and the last-good generation answering every
// endpoint at the model's seq. Every input runs twice, without and with
// a snapshot directory, which must not change any outcome.
//
// Wired into `make fuzzsmoke`; saved crashers land in testdata/fuzz/ and
// replay under plain `go test` forever.
func FuzzReloadModel(f *testing.F) {
	for _, seed := range [][]byte{
		{opReload, 0, opPush | 1<<3, 0, opReload, 0, opRollback, 0, opWatch, 0},
		{opReload, 0, opPushGutted, 0, opPushForced, 0, opPush, 0, opRollback, 0, opReload, 0},
		{opEditSource | 2<<3, 0, opWatch, 0, opReload, 1, opReload, 0, opPushMalformed, 3},
		{opPush | 3<<3, 2, opReload, 0, opPush | 3<<3, 0, opRollback, 8, opRollback, 0, opReload, 0},
		{opReload, 0, opPush | 1<<3, 0, opEditSource | 1<<3, 0, opReload, 0, opRollback, 0, opReload, 0},
		{opReload, 1, opPush | 2<<3, 4, opPushMalformed, 0, opReload, 0, opPushGutted, 6, opWatch, 2},
	} {
		f.Add(seed)
	}
	base := configSet(dirFiles(f, exampleDir))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, snapshots := range []bool{false, true} {
			s, dir := newIngestServer(t, func(c *Config) {
				if snapshots {
					c.SnapshotDir = t.TempDir()
				}
				c.ReloadRetries = 0
			})
			h := &modelHarness{t: t, label: fmt.Sprintf("snapshots %v", snapshots), s: s, nw: s.Net("push"),
				dir: dir, base: base, m: &reloadModel{
					src:     base,
					reloads: map[string]int64{},
					pushes:  map[string]int64{},
					events:  map[events.Type]int{},
				}}
			for i, st := range decodeModelSteps(data) {
				h.step(i, st)
			}
		}
	})
}
