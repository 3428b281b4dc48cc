// Package ingest closes the loop from configuration change to served
// design without a human in the path. It is the autonomous front door of
// the serve daemon, in two halves:
//
//   - Pull: a per-network Watcher polls a configuration directory's
//     cheap stat signature on a jittered interval and triggers a reload
//     only when the signature changes. Repeated failures back off
//     exponentially to a cap and trip a circuit breaker (the serve layer
//     publishes ingest.suspended / ingest.resumed events from the
//     watcher's callbacks); the next good signature resumes normal
//     cadence.
//   - Push: ExtractTarGz streams an operator- or pipeline-pushed tar.gz
//     of configurations into a staging directory under hard limits —
//     total bytes, entry count, per-file bytes — and rejects anything
//     that is not a plain file or directory with a local, non-traversing
//     path. A Store then promotes validated staging directories into an
//     immutable generation chain with one-call rollback, never mutating
//     the live configuration directory.
//
// Neither half decides whether a new design is *safe* to serve — that is
// the admission-control gate in internal/serve, which quarantines
// catastrophic-but-parseable pushes. This package only guarantees the
// mechanics: nothing escapes staging, nothing mutates the source, and a
// flapping source cannot busy-loop the analyzer.
package ingest

import (
	"archive/tar"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Ingestion metrics, exported by the serve layer. They live here so the
// names sit next to the mechanics they count.
const (
	// MetricPolls counts watcher polls, by net and result
	// (ok | unchanged | error | rejected).
	MetricPolls = "routinglens_ingest_polls_total"
	// MetricWatchSuspended is 1 while a network's watcher is circuit-
	// broken (backed off to its cap after repeated failures), by net.
	MetricWatchSuspended = "routinglens_ingest_watch_suspended"
	// MetricPushes counts pushed-config ingestions, by net and result
	// (ok | unchanged | bad_archive | too_large | rejected | failed |
	// unsupported).
	MetricPushes = "routinglens_ingest_pushes_total"
	// MetricRollbacks counts one-call generation rollbacks, by net.
	MetricRollbacks = "routinglens_ingest_rollbacks_total"
)

// Fault-injection sites the serve layer fires around ingestion steps
// (plain strings; internal/faultinject arms them).
const (
	// SiteExtract fires before a pushed archive is streamed into staging.
	SiteExtract = "ingest.extract"
	// SitePromote fires before a validated staging dir is renamed into
	// the generation chain.
	SitePromote = "ingest.promote"
	// SitePoll fires at the top of every watcher poll.
	SitePoll = "ingest.poll"
	// SiteRollback fires before a generation rollback.
	SiteRollback = "ingest.rollback"
)

// ErrArchive marks a structurally unacceptable archive: traversal or
// absolute paths, link/device entries, negative sizes, corrupt framing,
// or no configuration files at all. The HTTP layer maps it to 400.
var ErrArchive = errors.New("ingest: unacceptable archive")

// ErrTooLarge marks an archive that blew a size or entry-count limit.
// The HTTP layer maps it to 413.
var ErrTooLarge = errors.New("ingest: archive exceeds limits")

// Limits bound one pushed archive. The zero value means DefaultLimits.
type Limits struct {
	// MaxBytes bounds the total uncompressed payload.
	MaxBytes int64
	// MaxEntries bounds the number of file entries.
	MaxEntries int
	// MaxFileBytes bounds any single file.
	MaxFileBytes int64
}

// DefaultLimits is sized for config corpora, measured as text (du
// --apparent-size): netgen's largest corpus network, net5, is 5.0 MB in
// 881 files, and the 10k `netgen -provider` network has the most files,
// 9,972, in 2.5 MB. Real router configs are kilobytes each.
var DefaultLimits = Limits{
	MaxBytes:     64 << 20,
	MaxEntries:   16384,
	MaxFileBytes: 8 << 20,
}

// withDefaults fills zero fields from DefaultLimits.
func (l Limits) withDefaults() Limits {
	if l.MaxBytes <= 0 {
		l.MaxBytes = DefaultLimits.MaxBytes
	}
	if l.MaxEntries <= 0 {
		l.MaxEntries = DefaultLimits.MaxEntries
	}
	if l.MaxFileBytes <= 0 {
		l.MaxFileBytes = DefaultLimits.MaxFileBytes
	}
	return l
}

// ExtractResult summarizes one accepted archive.
type ExtractResult struct {
	// Files is the number of regular files written.
	Files int
	// Bytes is the total uncompressed bytes written.
	Bytes int64
}

// ExtractTarGz streams a gzipped tarball into dst, which must be an
// existing directory the caller owns (a staging dir). Only directories
// and regular files are accepted; symlinks, hard links, devices, and
// FIFOs are rejected, as is any entry whose cleaned path is absolute,
// escapes dst, or is otherwise non-local. Limits are enforced while
// streaming, so an adversarial archive costs at most the limit, not its
// decompressed size. On any error dst may hold a partial extraction —
// callers discard the whole staging dir; the live configuration
// directory is never touched.
func ExtractTarGz(r io.Reader, dst string, lim Limits) (ExtractResult, error) {
	lim = lim.withDefaults()
	var res ExtractResult
	gz, err := gzip.NewReader(r)
	if err != nil {
		return res, fmt.Errorf("%w: not gzip: %v", ErrArchive, err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// http.MaxBytesReader surfaces here when the *compressed*
			// stream blows the request-body cap; keep that a size error.
			if strings.Contains(err.Error(), "http: request body too large") {
				return res, fmt.Errorf("%w: request body over the byte limit", ErrTooLarge)
			}
			return res, fmt.Errorf("%w: corrupt tar: %v", ErrArchive, err)
		}
		name, err := safeRelPath(hdr.Name)
		if err != nil {
			return res, err
		}
		switch hdr.Typeflag {
		case tar.TypeDir:
			if name == "." {
				continue
			}
			if err := os.MkdirAll(filepath.Join(dst, name), 0o755); err != nil {
				return res, err
			}
		case tar.TypeReg:
			if hdr.Size < 0 {
				return res, fmt.Errorf("%w: entry %q has negative size", ErrArchive, hdr.Name)
			}
			if hdr.Size > lim.MaxFileBytes {
				return res, fmt.Errorf("%w: entry %q is %d bytes (per-file limit %d)",
					ErrTooLarge, hdr.Name, hdr.Size, lim.MaxFileBytes)
			}
			if res.Files++; res.Files > lim.MaxEntries {
				return res, fmt.Errorf("%w: more than %d entries", ErrTooLarge, lim.MaxEntries)
			}
			if res.Bytes+hdr.Size > lim.MaxBytes {
				return res, fmt.Errorf("%w: total payload over %d bytes", ErrTooLarge, lim.MaxBytes)
			}
			target := filepath.Join(dst, name)
			if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
				return res, err
			}
			n, err := writeFileFrom(target, tr, hdr.Size)
			res.Bytes += n
			if err != nil {
				return res, err
			}
		default:
			return res, fmt.Errorf("%w: entry %q has type %q (only files and directories are accepted)",
				ErrArchive, hdr.Name, string(hdr.Typeflag))
		}
	}
	if res.Files == 0 {
		return res, fmt.Errorf("%w: no configuration files", ErrArchive)
	}
	return res, nil
}

// safeRelPath validates one archive entry name and returns its cleaned
// dst-relative form. Everything rejected here is an attack shape:
// absolute paths, drive letters, "..", and Windows-reserved names are
// all non-local per filepath.IsLocal.
func safeRelPath(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("%w: empty entry name", ErrArchive)
	}
	clean := filepath.Clean(filepath.FromSlash(name))
	if clean == "." {
		return ".", nil
	}
	if !filepath.IsLocal(clean) {
		return "", fmt.Errorf("%w: entry %q escapes the staging dir", ErrArchive, name)
	}
	return clean, nil
}

// writeFileFrom copies exactly size bytes of r into a fresh file at
// target. O_EXCL: an archive naming the same file twice is rejected
// rather than silently last-writer-wins, and a racing writer cannot be
// followed out of staging.
func writeFileFrom(target string, r io.Reader, size int64) (int64, error) {
	f, err := os.OpenFile(target, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return 0, fmt.Errorf("%w: duplicate entry %q", ErrArchive, filepath.Base(target))
		}
		return 0, err
	}
	n, err := io.Copy(f, archiveReader{io.LimitReader(r, size)})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil && strings.Contains(err.Error(), "http: request body too large") {
		return n, fmt.Errorf("%w: request body over the byte limit", ErrTooLarge)
	}
	return n, err
}

// archiveReader reports a failure to read an entry's body — a truncated
// or corrupt stream — as ErrArchive: the archive is bad, not the server.
type archiveReader struct{ r io.Reader }

func (a archiveReader) Read(p []byte) (int, error) {
	n, err := a.r.Read(p)
	if err != nil && err != io.EOF {
		err = fmt.Errorf("%w: reading entry: %v", ErrArchive, err)
	}
	return n, err
}

// DirSignature fingerprints a configuration directory from stat alone:
// a hex SHA-256 over every regular file's (relative path, size, mtime),
// in path order. It is the cheap change detector the Watcher polls —
// content hashing is the analyzer's job, and only runs once the
// signature says something moved. An empty or missing directory has a
// well-defined signature too, so a watcher can observe a source
// appearing.
func DirSignature(dir string) (string, error) {
	type sig struct {
		path  string
		size  int64
		mtime int64
	}
	var sigs []sig
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// The root not existing yet is a signature ("absent"), not an
			// error; anything vanishing mid-walk is a change we'll see on
			// the next poll.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sigs = append(sigs, sig{rel, info.Size(), info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].path < sigs[j].path })
	h := sha256.New()
	var buf [16]byte
	for _, s := range sigs {
		io.WriteString(h, s.path)
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[0:8], uint64(s.size))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(s.mtime))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
