package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"routinglens/internal/telemetry"
)

// Error codes of the unified JSON error envelope. Every non-2xx body
// the daemon writes is {"error": ..., "code": ..., "trace_id": ...}
// with one of these machine-readable codes (trace_id present whenever
// the request ran under the tracing stack).
const (
	codeBadRequest       = "bad_request"
	codeNotFound         = "not_found"
	codeUnknownNet       = "unknown_net"
	codeNoDesign         = "no_design"
	codeSaturated        = "saturated"
	codeTimeout          = "timeout"
	codeInternal         = "internal"
	codeMethodNotAllowed = "method_not_allowed"
	codeReloadFailed     = "reload_failed"
	// Ingestion codes: a rejected design (admission control), an archive
	// over the push limits, a malformed/hostile archive, a rollback with
	// no generation to restore, and a push at a non-directory network.
	codeDesignRejected  = "design_rejected"
	codeTooLarge        = "too_large"
	codeBadArchive      = "bad_archive"
	codeNoRollback      = "no_rollback"
	codePushUnsupported = "push_unsupported"
)

// errorBody is the unified error envelope.
type errorBody struct {
	Error   string `json:"error"`
	Code    string `json:"code"`
	TraceID string `json:"trace_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError answers with the error envelope, carrying the trace ID of
// r's context.
func writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	writeEnvelope(w, telemetry.TraceIDFrom(r.Context()), status, code, msg)
}

// writeEnvelope answers with the error envelope for the given trace ID.
func writeEnvelope(w http.ResponseWriter, traceID string, status int, code, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Code: code, TraceID: traceID})
}

func writeText(w http.ResponseWriter, text string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

// handleHealthz answers "the process is up" — nothing more. It is 200
// from the first listen to the last drained request, designs or not.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// readyzResponse is one network's readiness: the /readyz?net= body and
// one entry of the fleet probe's nets list.
type readyzResponse struct {
	Net      string `json:"net,omitempty"`
	Ready    bool   `json:"ready"`
	Degraded bool   `json:"degraded"`
	Seq      int64  `json:"seq,omitempty"`
	LoadedAt string `json:"loaded_at,omitempty"`
	AgeSec   int64  `json:"age_seconds,omitempty"`
	// LastError explains degradation: the most recent failed load.
	LastError   string `json:"last_error,omitempty"`
	LastErrorAt string `json:"last_error_at,omitempty"`
	// Quarantined: the most recent reload was rejected by admission
	// control (the serving design is intact; see /v1/nets/{net}/quarantine).
	Quarantined bool `json:"quarantined,omitempty"`
}

// fleetReadyzResponse is the fleet /readyz body: the aggregate verdict
// plus every network's own readiness.
type fleetReadyzResponse struct {
	Ready    bool             `json:"ready"`
	Degraded bool             `json:"degraded"`
	Nets     []readyzResponse `json:"nets"`
}

// readyz snapshots one network's readiness.
func (nw *Network) readyz() readyzResponse {
	st := nw.cur.Load()
	resp := readyzResponse{Net: nw.name}
	if st != nil {
		resp.Seq = st.Seq
		resp.LoadedAt = st.LoadedAt.UTC().Format(time.RFC3339)
		resp.AgeSec = int64(time.Since(st.LoadedAt).Seconds())
	}
	if f := nw.lastFail.Load(); f != nil {
		resp.Degraded = true
		resp.LastError = f.Err
		resp.LastErrorAt = f.At.UTC().Format(time.RFC3339)
	}
	resp.Quarantined = nw.quarantine.Load() != nil
	resp.Ready = st != nil && !resp.Degraded
	return resp
}

// handleReadyz reports readiness. With ?net=<name> it is that network's
// probe: 200 only when the network serves a design and its most recent
// (re)load succeeded. Without the parameter it is the fleet probe: 200
// while ANY network is ready (the daemon can still answer something),
// and degraded only when EVERY network is degraded — one broken
// network's reload must not make a load balancer rotate out a daemon
// healthily serving the rest of the fleet. A degraded network keeps
// answering queries from its last-good design either way.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("net"); name != "" {
		nw := s.nets[name]
		if nw == nil {
			writeError(w, r, http.StatusNotFound, codeUnknownNet,
				fmt.Sprintf("unknown network %q; GET /v1/nets lists the fleet", name))
			return
		}
		resp := nw.readyz()
		code := http.StatusOK
		if !resp.Ready {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, resp)
		return
	}
	resp := fleetReadyzResponse{Degraded: true, Nets: make([]readyzResponse, 0, len(s.netNames))}
	for _, name := range s.netNames {
		nr := s.nets[name].readyz()
		resp.Ready = resp.Ready || nr.Ready
		resp.Degraded = resp.Degraded && nr.Degraded
		resp.Nets = append(resp.Nets, nr)
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// handleMetrics exports the registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// netInfo is one row of the /v1/nets listing.
type netInfo struct {
	Name         string `json:"name"`
	Ready        bool   `json:"ready"`
	Degraded     bool   `json:"degraded"`
	Seq          int64  `json:"seq"`
	Routers      int    `json:"routers,omitempty"`
	LoadedAt     string `json:"loaded_at,omitempty"`
	LastReloadMS int64  `json:"last_reload_ms,omitempty"`
	LastError    string `json:"last_error,omitempty"`
	Quarantined  bool   `json:"quarantined,omitempty"`
}

// netsResponse is the /v1/nets discovery body.
type netsResponse struct {
	Count int       `json:"count"`
	Nets  []netInfo `json:"nets"`
}

// handleNets lists the fleet: every served network with its generation,
// readiness, and reload facts. This is the discovery endpoint a consumer
// starts from.
func (s *Server) handleNets(w http.ResponseWriter, r *http.Request) {
	resp := netsResponse{
		Count: len(s.netNames),
		Nets:  make([]netInfo, 0, len(s.netNames)),
	}
	for _, name := range s.netNames {
		nw := s.nets[name]
		f := nw.lastFail.Load()
		info := netInfo{Name: name, Degraded: f != nil}
		if st := nw.cur.Load(); st != nil {
			info.Seq = st.Seq
			info.Routers = len(st.Res.Design.Network.Devices)
			info.LoadedAt = st.LoadedAt.UTC().Format(time.RFC3339)
			info.Ready = !info.Degraded
		}
		if d := nw.lastReloadNS.Load(); d > 0 {
			info.LastReloadMS = time.Duration(d).Milliseconds()
		}
		if f != nil {
			info.LastError = f.Err
		}
		info.Quarantined = nw.quarantine.Load() != nil
		resp.Nets = append(resp.Nets, info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReload re-analyzes one network on demand. The reload runs
// detached from the request context so a disconnecting client cannot
// half-cancel an analysis, and failures keep the network's last-good
// design serving. Every response carries a "result" discriminator:
// swapped | unchanged on success, rejected (422, admission control
// refused a cleanly analyzed candidate — the network is NOT degraded)
// or failed (500, analysis gave up — the network IS degraded) on
// error. ?force=1 bypasses the admission gate.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request, nw *Network) {
	force, ferr := parseForce(r)
	if ferr != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, ferr.Error())
		return
	}
	o := nw.reload(context.Background(), reloadReq{force: force, trigger: "manual"})
	if o.err != nil {
		status, resp := nw.reloadError(r, o)
		writeJSON(w, status, resp)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":        true,
		"net":       nw.name,
		"seq":       o.st.Seq,
		"result":    o.answer(),
		"loaded_at": o.st.LoadedAt.UTC().Format(time.RFC3339),
	})
}

// answer is a successful reload's or push's "result": swapped, or
// unchanged when it kept the serving generation (caches stay warm).
func (o outcome) answer() string {
	if o.result == "unchanged" {
		return "unchanged"
	}
	return "swapped"
}

// reloadError builds the answer to a reload or config push whose reload
// ended rejected or failed. Its "result" is "rejected" (422) when
// admission control refused a cleanly analyzed candidate and the network
// is NOT degraded, else "failed" (500): the commit has degraded the
// network. Either way the last-good generation, if any, keeps serving.
func (nw *Network) reloadError(r *http.Request, o outcome) (int, map[string]any) {
	resp := map[string]any{"error": o.err.Error(), "net": nw.name}
	if id := telemetry.TraceIDFrom(r.Context()); id != "" {
		resp["trace_id"] = id
	}
	if o.st != nil {
		resp["serving_seq"] = o.st.Seq
	}
	var adm *AdmissionError
	if errors.As(o.err, &adm) {
		resp["code"], resp["result"] = codeDesignRejected, "rejected"
		resp["reasons"] = adm.Reasons
		resp["quarantine"] = "/v1/nets/" + nw.name + "/quarantine"
		resp["note"] = "last-good design still serving; retry with ?force=1 to override"
		return http.StatusUnprocessableEntity, resp
	}
	resp["code"], resp["result"], resp["degraded"] = codeReloadFailed, "failed", true
	if o.st != nil {
		resp["note"] = "still serving the last-good design"
	}
	return http.StatusInternalServerError, resp
}

// summaryResponse is the summary endpoint's JSON body.
type summaryResponse struct {
	Net            string   `json:"net"`
	Network        string   `json:"network"`
	Routers        int      `json:"routers"`
	Interfaces     int      `json:"interfaces"`
	Unnumbered     int      `json:"unnumbered"`
	Instances      int      `json:"instances"`
	Classification string   `json:"classification"`
	Diagnostics    int      `json:"diagnostics"`
	SkippedFiles   []string `json:"skipped_files,omitempty"`
	Seq            int64    `json:"seq"`
	LoadedAt       string   `json:"loaded_at"`
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request, nw *Network, st *State, q Query) {
	d := st.Res.Design
	if q.Format == "text" {
		writeText(w, d.Summary())
		return
	}
	writeJSON(w, http.StatusOK, summaryResponse{
		Net:            nw.name,
		Network:        d.Network.Name,
		Routers:        len(d.Network.Devices),
		Interfaces:     d.Topology.TotalInterfaces,
		Unnumbered:     d.Topology.UnnumberedInterfaces,
		Instances:      len(d.Instances.Instances),
		Classification: d.Classification.String(),
		Diagnostics:    len(st.Res.Diagnostics),
		SkippedFiles:   st.Res.Skipped,
		Seq:            st.Seq,
		LoadedAt:       st.LoadedAt.UTC().Format(time.RFC3339),
	})
}

// pathwayResponse is the pathway endpoint's JSON body.
type pathwayResponse struct {
	Router          string       `json:"router"`
	Feeders         []string     `json:"feeders"`
	Hops            []pathwayHop `json:"hops"`
	MaxDepth        int          `json:"max_depth"`
	PolicyPoints    int          `json:"policy_points"`
	ReachesExternal bool         `json:"reaches_external"`
	LocalOnly       bool         `json:"local_only"`
	Seq             int64        `json:"seq"`
}

type pathwayHop struct {
	Instance string `json:"instance"`
	Depth    int    `json:"depth"`
}

func (s *Server) handlePathway(w http.ResponseWriter, r *http.Request, _ *Network, st *State, q Query) {
	g, err := st.Res.Design.Pathway(q.Router)
	if err != nil {
		writeError(w, r, http.StatusNotFound, codeNotFound, err.Error())
		return
	}
	if q.Format == "text" {
		writeText(w, g.String())
		return
	}
	resp := pathwayResponse{
		Router:          g.Router.Hostname,
		Feeders:         []string{},
		Hops:            []pathwayHop{},
		MaxDepth:        g.MaxDepth(),
		PolicyPoints:    len(g.PolicyPoints()),
		ReachesExternal: g.ReachesExternal,
		LocalOnly:       g.LocalOnly,
		Seq:             st.Seq,
	}
	for _, in := range g.Feeders {
		resp.Feeders = append(resp.Feeders, fmt.Sprintf("%d %s", in.ID, in.Label()))
	}
	for _, h := range g.Hops {
		resp.Hops = append(resp.Hops, pathwayHop{Instance: h.Label(), Depth: h.Depth})
	}
	writeJSON(w, http.StatusOK, resp)
}

// reachResponse is the reach endpoint's JSON body. Without src/dst it
// reports the network-wide external view; with them, block-to-block
// reachability.
type reachResponse struct {
	HasDefaultRoute  *bool    `json:"has_default_route,omitempty"`
	AdmittedExternal []string `json:"admitted_external,omitempty"`
	Src              string   `json:"src,omitempty"`
	Dst              string   `json:"dst,omitempty"`
	Reachable        *bool    `json:"reachable,omitempty"`
	Seq              int64    `json:"seq"`
}

func (s *Server) handleReach(w http.ResponseWriter, r *http.Request, _ *Network, st *State, q Query) {
	an := st.Reach
	resp := reachResponse{Seq: st.Seq}
	if q.HasBlocks {
		reachable := an.BlockReachesBlock(q.Src, q.Dst)
		resp.Src, resp.Dst, resp.Reachable = q.Src.String(), q.Dst.String(), &reachable
	} else {
		def := an.HasDefaultRoute()
		resp.HasDefaultRoute = &def
		resp.AdmittedExternal = []string{}
		for _, p := range an.AdmittedExternalRoutes() {
			resp.AdmittedExternal = append(resp.AdmittedExternal, p.String())
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// whatifResponse is the whatif endpoint's JSON body: the survivability
// analysis as counts plus the first entries of each failure class.
type whatifResponse struct {
	RouterFailures int      `json:"router_failures"`
	LinkFailures   int      `json:"link_failures"`
	BridgeFailures int      `json:"bridge_failures"`
	StaticRisks    int      `json:"static_risks"`
	Critical       []string `json:"critical_routers"`
	Seq            int64    `json:"seq"`
}

// maxWhatifEntries caps the listed critical routers so the response
// stays bounded on pathological networks.
const maxWhatifEntries = 100

func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request, _ *Network, st *State, q Query) {
	wa := st.Whatif
	if q.Format == "text" {
		writeText(w, wa.Summary())
		return
	}
	resp := whatifResponse{
		RouterFailures: len(wa.RouterFailures),
		LinkFailures:   len(wa.LinkFailures),
		BridgeFailures: len(wa.Bridges),
		StaticRisks:    len(wa.StaticRisks),
		Critical:       []string{},
		Seq:            st.Seq,
	}
	for i, rf := range wa.RouterFailures {
		if i >= maxWhatifEntries {
			break
		}
		resp.Critical = append(resp.Critical, fmt.Sprintf(
			"%s splits instance %d %s into %d pieces",
			rf.Router.Hostname, rf.Instance.ID, rf.Instance.Label(), rf.Pieces))
	}
	writeJSON(w, http.StatusOK, resp)
}
