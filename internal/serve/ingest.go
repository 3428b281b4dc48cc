// Continuous config ingestion: the serve-side wiring of
// internal/ingest. Three pieces live here —
//
//   - handleConfigs accepts POST /v1/nets/{net}/configs tar.gz pushes:
//     the archive is streamed into a staging directory under hard
//     size/entry/traversal limits; the push's reload analyzes it, runs
//     the admission gate, and only then promotes it into the network's
//     generation chain, inside the reload's panic boundary. The live
//     directory is never mutated; a rejected or malformed push leaves
//     the serving design byte-identical.
//   - handleRollback points the generation store back at its previous
//     generation, which the next reload analyzes.
//   - StartWatchers runs one ingest.Watcher per directory-backed
//     network, so drift in the config source flows in autonomously —
//     through the same reload, retry, and admission machinery a manual
//     reload uses, with a circuit breaker for sources that keep
//     failing.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"routinglens/internal/ingest"
	"routinglens/internal/telemetry"
)

// ingestRoot resolves (once) the directory the per-network generation
// stores live under: cfg.IngestDir, or a process-lifetime temp dir.
func (s *Server) ingestRoot() (string, error) {
	s.ingestOnce.Do(func() {
		if s.cfg.IngestDir != "" {
			s.ingestDir = s.cfg.IngestDir
			s.ingestErr = os.MkdirAll(s.ingestDir, 0o755)
			return
		}
		s.ingestDir, s.ingestErr = os.MkdirTemp("", "rlensd-ingest-")
	})
	return s.ingestDir, s.ingestErr
}

// ingestStore returns the network's generation store, creating it on
// first use. The store's generation zero is the network's configured
// source directory, so the first rollback after a push restores it.
func (nw *Network) ingestStore() (*ingest.Store, error) {
	nw.storeMu.Lock()
	defer nw.storeMu.Unlock()
	if nw.store != nil {
		return nw.store, nil
	}
	root, err := nw.s.ingestRoot()
	if err != nil {
		return nil, err
	}
	st, err := ingest.NewStoreRetain(filepath.Join(root, nw.name), nw.dir, nw.s.cfg.IngestRetain)
	if err != nil {
		return nil, err
	}
	nw.store = st
	return st, nil
}

// peekStore returns the store if one exists, without creating it — a
// rollback before any push has nothing to roll back to.
func (nw *Network) peekStore() *ingest.Store {
	nw.storeMu.Lock()
	defer nw.storeMu.Unlock()
	return nw.store
}

// parseForce reads the ?force query parameter strictly: absent/0/false
// means gated, 1/true bypasses the admission gate, anything else is a
// client error.
func parseForce(r *http.Request) (bool, error) {
	switch r.URL.Query().Get("force") {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, fmt.Errorf("force must be 0/false or 1/true, got %q", r.URL.Query().Get("force"))
	}
}

// handleConfigs ingests a pushed tar.gz of router configurations:
// extract into staging under limits, then one reload that analyzes,
// admits, promotes and swaps. Every failure mode leaves the live
// directory untouched — malformed archives never leave staging, rejected
// designs are quarantined while the last-good generation keeps serving.
// Each push counts once in ingest_pushes_total; a panic counts failed.
func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request, nw *Network) {
	result := "failed"
	defer func() {
		s.reg.Counter(ingest.MetricPushes, telemetry.L("net", nw.name), telemetry.L("result", result)).Inc()
	}()
	if nw.dir == "" {
		result = "unsupported"
		writeError(w, r, http.StatusBadRequest, codePushUnsupported,
			fmt.Sprintf("network %q is not directory-backed; config pushes need a directory source", nw.name))
		return
	}
	force, err := parseForce(r)
	if err != nil {
		result = "bad_archive"
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	store, err := nw.ingestStore()
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, codeInternal,
			"opening the generation store: "+err.Error())
		return
	}
	if ferr := s.faults.Fire(telemetry.WithRegistry(r.Context(), s.reg), ingest.SiteExtract); ferr != nil {
		writeError(w, r, http.StatusInternalServerError, codeInternal, ferr.Error())
		return
	}
	staging, err := store.Begin()
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, codeInternal,
			"creating a staging directory: "+err.Error())
		return
	}
	lim := ingest.DefaultLimits
	res, err := ingest.ExtractTarGz(http.MaxBytesReader(w, r.Body, lim.MaxBytes), staging, lim)
	if err != nil {
		store.Discard(staging)
		switch {
		case errors.Is(err, ingest.ErrTooLarge):
			result = "too_large"
			writeError(w, r, http.StatusRequestEntityTooLarge, codeTooLarge, err.Error())
		default:
			result = "bad_archive"
			writeError(w, r, http.StatusBadRequest, codeBadArchive, err.Error())
		}
		return
	}

	// Analyze the staged snapshot through the normal reload transaction,
	// detached from the request context (a disconnecting client must not
	// half-cancel an analysis); its commit discards unpromoted staging.
	o := nw.reload(context.Background(), reloadReq{force: force, trigger: "push",
		push: &pushReq{store: store, staging: staging, files: res.Files, bytes: res.Bytes}})
	if o.err != nil {
		status, resp := nw.reloadError(r, o)
		result = resp["result"].(string)
		writeJSON(w, status, resp)
		return
	}
	result = o.result
	resp := map[string]any{
		"ok":     true,
		"net":    nw.name,
		"result": o.answer(),
		"files":  res.Files,
		"bytes":  res.Bytes,
		"seq":    o.st.Seq,
	}
	if o.gen != "" {
		resp["generation"] = filepath.Base(o.gen)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRollback points the network's generation store back at its
// previous generation. It does not itself reload — the next reload
// (manual, watch, or SIGHUP) analyzes the restored generation and swaps
// it in through the usual gate.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request, nw *Network) {
	if nw.dir == "" {
		writeError(w, r, http.StatusBadRequest, codePushUnsupported,
			fmt.Sprintf("network %q is not directory-backed; nothing to roll back", nw.name))
		return
	}
	store := nw.peekStore()
	if store == nil {
		writeError(w, r, http.StatusConflict, codeNoRollback,
			"no pushed generations; nothing to roll back")
		return
	}
	fctx := telemetry.WithRegistry(r.Context(), s.reg)
	if ferr := s.faults.Fire(fctx, ingest.SiteRollback); ferr != nil {
		writeError(w, r, http.StatusInternalServerError, codeInternal, ferr.Error())
		return
	}
	restored, err := store.Rollback()
	if err != nil {
		writeError(w, r, http.StatusConflict, codeNoRollback, err.Error())
		return
	}
	s.reg.Counter(ingest.MetricRollbacks, telemetry.L("net", nw.name)).Inc()
	nw.emit(EvtConfigRolledBack, configRolledbackPayload{Restored: filepath.Base(restored)})
	s.log.Info("generation rolled back", "net", nw.name, "restored", restored)
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       true,
		"net":      nw.name,
		"restored": filepath.Base(restored),
		"note":     "the next reload analyzes the restored generation",
	})
}

// handleQuarantine reports the network's retained admission rejection,
// if any.
func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request, nw *Network) {
	rec := nw.quarantine.Load()
	resp := map[string]any{
		"net":         nw.name,
		"quarantined": rec != nil,
	}
	if rec != nil {
		resp["record"] = rec
	}
	writeJSON(w, http.StatusOK, resp)
}

// StartWatchers launches one config-source watcher per directory-backed
// network (when Config.WatchInterval is positive). Each watcher polls
// its network's active directory signature on a jittered interval,
// reloads on change through the bounded reload semaphore, retries with
// exponential backoff, and circuit-breaks (ingest.suspended) after
// three consecutive failures (ingest.Watcher's default) — resuming on
// the next good signature. Run calls this; embedders driving Handler directly can
// call it themselves. The watchers stop when ctx is cancelled.
func (s *Server) StartWatchers(ctx context.Context) {
	if s.cfg.WatchInterval <= 0 {
		return
	}
	for _, name := range s.netNames {
		nw := s.nets[name]
		if nw.dir == "" {
			continue
		}
		s.watchWG.Add(1)
		go func(nw *Network) {
			defer s.watchWG.Done()
			nw.watch(ctx)
		}(nw)
	}
}

// watch runs the network's config-source watcher until ctx is
// cancelled.
func (nw *Network) watch(ctx context.Context) {
	s := nw.s
	lnet := telemetry.L("net", nw.name)
	fctx := telemetry.WithRegistry(ctx, s.reg)
	w := &ingest.Watcher{
		Net: nw.name,
		Signature: func() (string, error) {
			if err := s.faults.Fire(fctx, ingest.SitePoll); err != nil {
				return "", err
			}
			return ingest.DirSignature(nw.activeDirPath())
		},
		Reload: func(ctx context.Context) error {
			return nw.reload(ctx, reloadReq{trigger: "watch"}).err
		},
		IsRejection: func(err error) bool {
			var adm *AdmissionError
			return errors.As(err, &adm)
		},
		Interval:   s.cfg.WatchInterval,
		MaxBackoff: s.cfg.WatchMaxBackoff,
		OnPoll: func(result string) {
			s.reg.Counter(ingest.MetricPolls, lnet, telemetry.L("result", result)).Inc()
		},
		OnSuspend: func(failures int, backoff time.Duration, err error) {
			s.reg.Gauge(ingest.MetricWatchSuspended, lnet).Set(1)
			p := ingestSuspendedPayload{Failures: failures, BackoffMS: backoff.Milliseconds()}
			if err != nil {
				p.Error = err.Error()
			}
			nw.emit(EvtIngestSuspended, p)
			s.log.Warn("config watcher suspended; polling at capped backoff",
				"net", nw.name, "failures", failures, "backoff", backoff, "error", err)
		},
		OnResume: func(failures int) {
			s.reg.Gauge(ingest.MetricWatchSuspended, lnet).Set(0)
			nw.emit(EvtIngestResumed, ingestResumedPayload{FailuresCleared: failures})
			s.log.Info("config watcher resumed", "net", nw.name, "failures_cleared", failures)
		},
	}
	w.Run(ctx)
}
