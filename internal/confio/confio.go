// Package confio is the shared input-hardening layer under both
// configuration front ends (ciscoparse, junosparse) and the anonymizer.
// Production configuration dumps are messy: CRLF line endings, tabs,
// NUL bytes from interrupted transfers, megabyte-long lines from pasted
// certificates, and banner blocks whose free text looks exactly like
// commands. Everything here exists so that one corrupted file degrades
// into diagnostics instead of killing a network analysis.
//
// The three pieces are deliberately dialect-neutral:
//
//   - Scanner reads lines of unbounded length, truncating anything past
//     MaxLineBytes instead of erroring out the way bufio.Scanner does;
//   - Normalize canonicalizes CRLF/tab/NUL so both dialects tokenize
//     the same bytes the same way;
//   - BannerSkipper recognizes IOS "banner <type> <delim>" blocks so
//     delimiter-bounded free text is never parsed as configuration.
package confio

import (
	"bufio"
	"io"
	"strings"
)

// MaxLineBytes is the longest logical line the Scanner returns. Anything
// beyond it on one line is discarded and the line is flagged truncated.
// 1 MiB matches the old bufio.Scanner buffer limit that used to make
// readLines fail hard.
const MaxLineBytes = 1 << 20

// Scanner reads a stream line by line like bufio.Scanner, but an
// oversized line is truncated (and flagged) instead of aborting the
// whole file with bufio.ErrTooLong.
type Scanner struct {
	r         *bufio.Reader
	text      string
	truncated bool
	err       error
	done      bool
}

// NewScanner wraps r for line scanning.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: bufio.NewReaderSize(r, 64*1024)}
}

// Scan advances to the next line. It returns false at end of input or on
// a read error (see Err).
func (s *Scanner) Scan() bool {
	if s.done {
		return false
	}
	s.truncated = false
	var buf []byte
	for {
		chunk, err := s.r.ReadSlice('\n')
		switch {
		case len(buf)+len(chunk) <= MaxLineBytes:
			buf = append(buf, chunk...)
		case len(buf) < MaxLineBytes:
			buf = append(buf, chunk[:MaxLineBytes-len(buf)]...)
			s.truncated = true
		default:
			s.truncated = true
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			s.done = true
			if err != io.EOF {
				s.err = err
			}
			if len(buf) == 0 {
				return false
			}
		}
		break
	}
	if n := len(buf); n > 0 && buf[n-1] == '\n' {
		buf = buf[:n-1]
	}
	s.text = string(buf)
	return true
}

// Text returns the current line without its trailing newline. The line
// may still carry a trailing '\r' (CRLF input); use Normalize.
func (s *Scanner) Text() string { return s.text }

// Truncated reports whether the current line exceeded MaxLineBytes and
// was cut.
func (s *Scanner) Truncated() bool { return s.truncated }

// Err returns the first non-EOF read error, if any.
func (s *Scanner) Err() error { return s.err }

// Normalize canonicalizes one line (or a whole blob) of configuration
// text: carriage returns and NUL bytes are dropped, tabs become single
// spaces. Newlines survive, so it is safe on multi-line input too.
//
// The transformation is byte-preserving for everything else — invalid
// UTF-8 passes through untouched rather than being replaced with
// U+FFFD. That makes Normalize idempotent on arbitrary bytes, which the
// parse cache depends on: its keys hash normalized content, so two
// byte-strings that normalize equal must hash equal no matter how
// corrupted the rest of the file is.
func Normalize(s string) string {
	// Three IndexByte scans, each vectorized, beat one ContainsAny, which
	// tests every byte against the set: a reload keys every file's text.
	if strings.IndexByte(s, '\r') < 0 && strings.IndexByte(s, '\t') < 0 && strings.IndexByte(s, 0) < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\r', 0:
		case '\t':
			b.WriteByte(' ')
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// BannerSkipper tracks IOS banner blocks: "banner <type> <delim>" starts
// a region of free text that runs until the next occurrence of the
// delimiter, possibly on the same line. The delimiter is the first
// character of the third token, except that a caret pair ("^C") counts
// as the two-character form it is written in.
//
// Both the parser and the anonymizer drive the same skipper so the two
// always agree on what is configuration and what is banner text — the
// design extracted from an anonymized file must match the original's.
type BannerSkipper struct {
	delim string
}

// Skipping reports whether the skipper is inside a banner body.
func (b *BannerSkipper) Skipping() bool { return b.delim != "" }

// Open inspects one command line (leading whitespace trimmed). If the
// line is a banner command with a delimiter it reports true, and the
// skipper activates unless the closing delimiter already appears later
// on the same line.
func (b *BannerSkipper) Open(body string) bool {
	f := strings.Fields(body)
	if len(f) < 3 || f[0] != "banner" {
		return false
	}
	delim := f[2]
	if len(delim) >= 2 && delim[0] == '^' {
		delim = delim[:2]
	} else {
		delim = delim[:1]
	}
	rest := ""
	if idx := strings.Index(body, f[2]); idx >= 0 { // always found: f[2] is a field of body
		rest = body[idx+len(delim):]
	}
	if !strings.Contains(rest, delim) {
		b.delim = delim
	}
	return true
}

// Consume processes one line of banner free text; the skipper
// deactivates when the closing delimiter appears on it.
func (b *BannerSkipper) Consume(line string) {
	if strings.Contains(line, b.delim) {
		b.delim = ""
	}
}
