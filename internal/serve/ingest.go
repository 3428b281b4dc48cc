// Continuous config ingestion: the serve-side wiring of
// internal/ingest. Three pieces live here —
//
//   - handleConfigs accepts POST /v1/nets/{net}/configs tar.gz pushes:
//     the archive is streamed into a staging directory under hard
//     size/entry/traversal limits, analyzed, run through the admission
//     gate, and only then promoted into the network's generation chain.
//     The live directory is never mutated; a rejected or malformed push
//     leaves the serving design byte-identical.
//   - handleRollback restores the previous promoted generation as the
//     active directory (the next reload analyzes it).
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
// extract into staging under limits, analyze, admit, promote, swap.
// Every failure mode leaves the live directory untouched — malformed
// archives never leave staging, rejected designs are quarantined while
// the last-good generation keeps serving.
func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request, nw *Network) {
	lnet := telemetry.L("net", nw.name)
	pushResult := func(res string) {
		s.reg.Counter(ingest.MetricPushes, lnet, telemetry.L("result", res)).Inc()
	}
	if nw.dir == "" {
		pushResult("unsupported")
		writeError(w, r, http.StatusBadRequest, codePushUnsupported,
			fmt.Sprintf("network %q is not directory-backed; config pushes need a directory source", nw.name))
		return
	}
	force, err := parseForce(r)
	if err != nil {
		pushResult("bad_archive")
		writeError(w, r, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	store, err := nw.ingestStore()
	if err != nil {
		pushResult("failed")
		writeError(w, r, http.StatusInternalServerError, codeInternal,
			"opening the generation store: "+err.Error())
		return
	}
	staging, err := store.Begin()
	if err != nil {
		pushResult("failed")
		writeError(w, r, http.StatusInternalServerError, codeInternal,
			"creating a staging directory: "+err.Error())
		return
	}
	lim := ingest.DefaultLimits
	fctx := telemetry.WithRegistry(r.Context(), s.reg)
	if ferr := s.faults.Fire(fctx, ingest.SiteExtract); ferr != nil {
		store.Discard(staging)
		pushResult("failed")
		writeError(w, r, http.StatusInternalServerError, codeInternal, ferr.Error())
		return
	}
	res, err := ingest.ExtractTarGz(http.MaxBytesReader(w, r.Body, lim.MaxBytes), staging, lim)
	if err != nil {
		store.Discard(staging)
		switch {
		case errors.Is(err, ingest.ErrTooLarge):
			pushResult("too_large")
			writeError(w, r, http.StatusRequestEntityTooLarge, codeTooLarge, err.Error())
		default:
			pushResult("bad_archive")
			writeError(w, r, http.StatusBadRequest, codeBadArchive, err.Error())
		}
		return
	}

	// Analyze the staged snapshot through the normal reload machinery,
	// detached from the request context (a disconnecting client must not
	// half-cancel an analysis). Promotion into the generation chain
	// happens inside the reload, after the admission gate passes.
	promoted := ""
	rerr := nw.reload(context.Background(), reloadReq{
		force:   force,
		trigger: "push",
		dir:     staging,
		promote: func() (string, error) {
			if ferr := s.faults.Fire(fctx, ingest.SitePromote); ferr != nil {
				return "", ferr
			}
			gen, perr := store.Promote(staging)
			if perr == nil {
				promoted = gen
			}
			return gen, perr
		},
		pushFiles: res.Files,
		pushBytes: res.Bytes,
	})
	if promoted == "" {
		store.Discard(staging)
	}
	if rerr != nil {
		status, resp := nw.reloadError(r, rerr)
		pushResult(resp["result"].(string))
		writeJSON(w, status, resp)
		return
	}
	st := nw.cur.Load()
	result := "swapped"
	if promoted == "" {
		// The staged snapshot's signature set matched the serving
		// generation: nothing was promoted, nothing swapped.
		result = "unchanged"
		pushResult("unchanged")
	} else {
		pushResult("ok")
	}
	resp := map[string]any{
		"ok":     true,
		"net":    nw.name,
		"result": result,
		"files":  res.Files,
		"bytes":  res.Bytes,
	}
	if st != nil {
		resp["seq"] = st.Seq
	}
	if promoted != "" {
		resp["generation"] = filepath.Base(promoted)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRollback repoints the network at its previous promoted
// generation. It does not itself reload — the next reload (manual,
// watch, or SIGHUP) analyzes the restored generation and swaps it in
// through the usual gate.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request, nw *Network) {
	lnet := telemetry.L("net", nw.name)
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
	nw.setActiveDir(restored)
	s.reg.Counter(ingest.MetricRollbacks, lnet).Inc()
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
// reloads on change through the bounded worker pool, retries with
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
			return nw.reload(ctx, reloadReq{trigger: "watch"})
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
