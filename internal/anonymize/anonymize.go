// Package anonymize implements the paper's structure-preserving
// configuration anonymizer (Section 4.1):
//
//   - comments are stripped;
//   - non-numeric tokens not found in the IOS command vocabulary are
//     replaced by keyed SHA-1 digests rendered as random-looking names
//     (the paper's "8aTzlvBrbaW");
//   - IP addresses are anonymized with a deterministic prefix-preserving
//     scheme in the style of tcpdpriv/Crypto-PAn: addresses sharing a
//     k-bit prefix before anonymization share a k-bit prefix after, and
//     the address class is preserved so classful network statements keep
//     their meaning;
//   - subnet masks and wildcard masks are left intact (they describe
//     structure, not identity);
//   - public AS numbers are remapped deterministically; private AS numbers
//     (64512–65535) are preserved, as they leak no identity.
//
// The defining property, verified by tests and the A1 experiment, is that
// the routing design extracted from anonymized configurations is
// isomorphic to the design extracted from the originals.
package anonymize

import (
	"bufio"
	"context"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"routinglens/internal/confio"
	"routinglens/internal/fanout"
	"routinglens/internal/netaddr"
)

// Anonymizer rewrites configuration text under a secret key. It is safe
// for concurrent use: the PRF cache and the renaming table are guarded,
// and every mapping is a pure function of (key, input), so the output is
// identical whatever the goroutine interleaving.
type Anonymizer struct {
	key []byte
	// vocab is the set of lower-case tokens that need no anonymization.
	vocab map[string]bool

	mu sync.Mutex
	// bitCache memoizes the PRF for address prefixes.
	bitCache map[uint64]byte
	// names records every identifier renamed so far (original -> anon).
	names map[string]string
}

// New creates an Anonymizer with the given secret key. The same key yields
// the same mapping, so a corpus anonymized file-by-file stays consistent.
func New(key string) *Anonymizer {
	return &Anonymizer{
		key:      []byte(key),
		bitCache: make(map[uint64]byte),
		names:    make(map[string]string),
		vocab:    iosVocabulary(),
	}
}

// AnonymizeConfig rewrites one configuration. Line classification is
// byte-for-byte the parser's (see ciscoparse.readLines): input is
// normalized through confio, blank and comment lines are dropped, and a
// banner block — identity-laden free prose — is replaced by a
// self-closing "banner motd ^C^C" placeholder so the anonymized file
// still closes any open section at the same spot. Every surviving line
// is rewritten token by token.
func (a *Anonymizer) AnonymizeConfig(r io.Reader, w io.Writer) error {
	sc := confio.NewScanner(r)
	bw := bufio.NewWriter(w)
	var banner confio.BannerSkipper
	for sc.Scan() {
		raw := confio.Normalize(sc.Text())
		if banner.Skipping() {
			banner.Consume(raw)
			continue
		}
		trimmed := strings.TrimRight(raw, " ")
		if trimmed == "" {
			continue
		}
		body := strings.TrimLeft(trimmed, " ")
		if body[0] == '!' {
			continue
		}
		indent := trimmed[:len(trimmed)-len(body)]
		if banner.Open(body) {
			if _, err := bw.WriteString(indent + "banner motd ^C^C\n"); err != nil {
				return err
			}
			continue
		}
		if _, err := bw.WriteString(indent + a.AnonymizeLine(body) + "\n"); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// AnonymizeLine rewrites one configuration line.
func (a *Anonymizer) AnonymizeLine(line string) string {
	tokens := strings.Fields(line)
	out := make([]string, len(tokens))
	for i := range tokens {
		out[i] = a.anonToken(tokens, i)
	}
	return strings.Join(out, " ")
}

// anonToken rewrites tokens[i] considering its left context.
func (a *Anonymizer) anonToken(tokens []string, i int) string {
	tok := tokens[i]

	// Dotted quads: addresses are anonymized, masks are preserved.
	if addr, err := netaddr.ParseAddr(tok); err == nil && strings.Count(tok, ".") == 3 {
		if isMaskLike(addr) {
			return tok
		}
		return a.AnonymizeAddr(addr).String()
	}

	// Prefix notation a.b.c.d/len (ip prefix-list).
	if slash := strings.IndexByte(tok, '/'); slash > 0 && strings.Count(tok[:slash], ".") == 3 {
		if p, err := netaddr.ParsePrefix(tok); err == nil {
			anon := netaddr.PrefixFrom(a.AnonymizeAddr(p.Addr()), p.Bits())
			return anon.String()
		}
	}

	// AS numbers in context: "router bgp N", "neighbor X remote-as N",
	// "redistribute bgp N".
	if i > 0 && (equalFold(tokens[i-1], "bgp") || equalFold(tokens[i-1], "remote-as")) {
		if asn, err := strconv.ParseUint(tok, 10, 32); err == nil {
			return strconv.FormatUint(uint64(a.AnonymizeAS(uint32(asn))), 10)
		}
	}

	// Plain integers are structure (metrics, areas, ACL numbers): keep.
	if _, err := strconv.Atoi(tok); err == nil {
		return tok
	}

	// Interface names: known type prefix + unit designator.
	if isInterfaceName(tok) {
		return tok
	}

	// Vocabulary tokens need no anonymization.
	if a.vocab[strings.ToLower(tok)] {
		return tok
	}

	return a.HashName(tok)
}

func equalFold(a, b string) bool { return strings.EqualFold(a, b) }

// isMaskLike reports whether the address is a contiguous netmask or a
// contiguous wildcard mask (including 0.0.0.0 and 255.255.255.255).
func isMaskLike(a netaddr.Addr) bool {
	m := netaddr.Mask(a)
	return m.Contiguous() || m.Invert().Contiguous()
}

// isInterfaceName reports whether the token is an interface reference such
// as "Serial1/0.5", "POS0/0", or "Loopback0".
func isInterfaceName(tok string) bool {
	j := 0
	for j < len(tok) {
		c := tok[j]
		if c >= '0' && c <= '9' {
			break
		}
		j++
	}
	if j == 0 || j == len(tok) {
		return false
	}
	known := map[string]bool{
		"serial": true, "ethernet": true, "fastethernet": true,
		"gigabitethernet": true, "atm": true, "pos": true, "hssi": true,
		"tokenring": true, "dialer": true, "bri": true, "tunnel": true,
		"port": true, "async": true, "virtual": true, "channel": true,
		"cbr": true, "fddi": true, "multilink": true, "null": true,
		"loopback": true, "vlan": true,
	}
	head := tok[:j]
	if k := strings.IndexByte(head, '-'); k >= 0 {
		head = head[:k]
	}
	if !known[strings.ToLower(head)] {
		return false
	}
	for ; j < len(tok); j++ {
		switch c := tok[j]; {
		case c >= '0' && c <= '9', c == '/', c == '.', c == ':', c == '-':
		default:
			return false
		}
	}
	return true
}

// HashName maps an identifier to a deterministic random-looking name of 11
// characters starting with a digit-free position, like the paper's
// anonymized route-map names. Every mapping is recorded; see NameTable.
func (a *Anonymizer) HashName(tok string) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if v, ok := a.names[tok]; ok {
		return v
	}
	sum := sha1.Sum(append(append([]byte{}, a.key...), []byte("name:"+tok)...))
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	var b strings.Builder
	for i := 0; i < 11; i++ {
		idx := int(sum[i]) % len(alphabet)
		if i == 0 {
			idx = int(sum[i]) % 52 // start with a letter
		}
		b.WriteByte(alphabet[idx])
	}
	out := b.String()
	a.names[tok] = out
	return out
}

// NameTable returns a copy of the identifier renaming table accumulated
// so far (original token -> anonymized name). Operators keep it as the
// confidential decoder ring for diagnostics that name anonymized objects.
func (a *Anonymizer) NameTable() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]string, len(a.names))
	for k, v := range a.names {
		out[k] = v
	}
	return out
}

// AnonymizeAddr applies class- and prefix-preserving anonymization. The
// leading four bits (which determine the address class) are preserved;
// every following bit is XORed with a keyed PRF of the preceding bits, so
// common prefixes stay common.
func (a *Anonymizer) AnonymizeAddr(addr netaddr.Addr) netaddr.Addr {
	u := uint32(addr)
	// 0.0.0.0 and 255.255.255.255 are structural.
	if u == 0 || u == 0xffffffff {
		return addr
	}
	var out uint32
	out = u & 0xf0000000 // class-preserving: keep the top nibble
	for bit := 4; bit < 32; bit++ {
		prefix := u >> (32 - bit) // the original preceding bits
		flip := a.prfBit(uint64(prefix)<<6 | uint64(bit))
		orig := (u >> (31 - bit)) & 1
		anon := orig ^ uint32(flip&1)
		out |= anon << (31 - bit)
	}
	return netaddr.Addr(out)
}

func (a *Anonymizer) prfBit(x uint64) byte {
	a.mu.Lock()
	if v, ok := a.bitCache[x]; ok {
		a.mu.Unlock()
		return v
	}
	a.mu.Unlock()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], x)
	sum := sha1.Sum(append(append([]byte{}, a.key...), buf[:]...))
	v := sum[0]
	a.mu.Lock()
	a.bitCache[x] = v
	a.mu.Unlock()
	return v
}

// AnonymizeAS remaps public AS numbers into 1..64511 deterministically;
// private ASes (64512–65535) and AS 0 are preserved.
func (a *Anonymizer) AnonymizeAS(asn uint32) uint32 {
	if asn == 0 || (asn >= 64512 && asn <= 65535) {
		return asn
	}
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], asn)
	sum := sha1.Sum(append(append([]byte{}, a.key...), append([]byte("as:"), buf[:]...)...))
	v := binary.BigEndian.Uint32(sum[:4])
	return 1 + v%64511
}

// iosVocabulary returns the set of tokens that may appear in valid
// commands and carry no identity — the stand-in for the paper's list
// extracted from the published Cisco IOS command reference.
func iosVocabulary() map[string]bool {
	words := []string{
		// Structure and modes.
		"hostname", "interface", "router", "line", "vty", "con", "aux",
		"banner", "end", "exit", "no", "version", "service", "enable",
		"secret", "password", "login", "logging", "snmp-server", "ntp",
		"clock", "boot", "class-map", "policy-map", "controller", "crypto",
		"archive", "key", "vrf", "voice", "dial-peer",
		// Interface commands.
		"ip", "address", "secondary", "unnumbered", "shutdown",
		"description", "encapsulation", "frame-relay", "interface-dlci",
		"point-to-point", "multipoint", "bandwidth", "delay", "mtu",
		"access-group", "hdlc", "ppp", "dot1q", "isl", "aal5snap", "ietf",
		"cable-length", "dsu", "clock", "rate", "source", "keepalive",
		// Routing processes.
		"ospf", "eigrp", "igrp", "rip", "bgp", "isis", "odr",
		"network", "area", "mask", "redistribute", "connected", "static",
		"metric", "metric-type", "subnets", "route-map", "tag",
		"distribute-list", "in", "out", "passive-interface", "default",
		"default-information", "originate", "default-metric", "router-id",
		"maximum-paths", "auto-summary", "synchronization", "variance",
		"summary-address", "timers", "basic", "spf", "stub", "nssa",
		"no-summary", "log-neighbor-changes", "always",
		// BGP neighbor attributes.
		"neighbor", "remote-as", "update-source", "next-hop-self",
		"send-community", "soft-reconfiguration", "inbound", "ebgp-multihop",
		"route-reflector-client", "peer-group", "activate", "weight",
		"maximum-prefix", "confederation", "cluster-id",
		// Policies.
		"access-list", "permit", "deny", "remark", "host", "any",
		"eq", "neq", "gt", "lt", "range", "log", "log-input", "established",
		"match", "set", "local-preference", "community", "as-path",
		"prefix-list", "seq", "ge", "le", "standard", "extended",
		// Protocol keywords in extended ACLs.
		"tcp", "udp", "icmp", "igmp", "gre", "esp", "ahp", "pim", "ipinip",
		"nos", "pcp", "echo", "echo-reply", "unreachable",
		// Common port names.
		"bgp", "domain", "ftp", "ftp-data", "ntp", "smtp", "snmp", "ssh",
		"syslog", "telnet", "tftp", "www", "bootps", "bootpc", "isakmp",
		// Static routes and misc.
		"route", "classless", "subnet-zero", "forward-protocol", "nd",
		"name-server", "domain-name", "cef", "vlan",
	}
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

// MapNetwork anonymizes a whole set of configurations (filename ->
// contents), returning new contents keyed "config1", "config2", ... in the
// sorted order of the original names — matching the paper's practice of
// stripping even file-name hints.
func (a *Anonymizer) MapNetwork(configs map[string]string) (map[string]string, error) {
	names := make([]string, 0, len(configs))
	for n := range configs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make(map[string]string, len(configs))
	for i, n := range names {
		var sb strings.Builder
		if err := a.AnonymizeConfig(strings.NewReader(configs[n]), &sb); err != nil {
			return nil, fmt.Errorf("anonymize: %s: %w", n, err)
		}
		out[fmt.Sprintf("config%d", i+1)] = sb.String()
	}
	return out, nil
}

// AnonymizeDir anonymizes every regular file in the directory in into
// out/config1, out/config2, ... (sorted original-name order). Reads and
// rewrites fan out over workers goroutines (<=1 means sequential); every
// mapping is a pure function of the key, so the output bytes are
// identical at any worker count.
//
// With failFast false (lenient), a file that cannot be read is skipped
// and reported in skipped; with failFast true the first failure aborts.
// Output numbering covers only the files that made it through, and write
// errors are always fatal — a broken output directory is not per-file
// degradation.
func (a *Anonymizer) AnonymizeDir(in, out string, workers int, failFast bool) (written int, skipped []string, err error) {
	return a.AnonymizeDirContext(context.Background(), in, out, workers, failFast)
}

// AnonymizeDirContext is AnonymizeDir bounded by a context: cancellation
// (a -timeout expiry, a Ctrl-C) stops the fan-out at the next file
// boundary and returns ctx.Err(). An aborted run may leave a partial
// output directory; it never leaves a partially written file, because
// each file is written in one WriteFile call.
func (a *Anonymizer) AnonymizeDirContext(ctx context.Context, in, out string, workers int, failFast bool) (written int, skipped []string, err error) {
	entries, err := os.ReadDir(in)
	if err != nil {
		return 0, nil, err
	}
	var files []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)

	texts := make([]string, len(files))
	readErrs := make([]error, len(files))
	forEach(workers, len(files), func(i int) {
		if ctx.Err() != nil {
			return
		}
		data, err := os.ReadFile(filepath.Join(in, files[i]))
		texts[i], readErrs[i] = string(data), err
	})
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	var keep []int
	for i, rerr := range readErrs {
		if rerr != nil {
			if failFast {
				return 0, nil, fmt.Errorf("anonymize: %s: %w", files[i], rerr)
			}
			skipped = append(skipped, files[i])
			continue
		}
		keep = append(keep, i)
	}

	outputs := make([]string, len(keep))
	anonErrs := make([]error, len(keep))
	forEach(workers, len(keep), func(i int) {
		if ctx.Err() != nil {
			return
		}
		var sb strings.Builder
		anonErrs[i] = a.AnonymizeConfig(strings.NewReader(texts[keep[i]]), &sb)
		outputs[i] = sb.String()
	})
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	for i, aerr := range anonErrs {
		if aerr != nil { // unreachable for in-memory input; future-proofing
			return 0, nil, fmt.Errorf("anonymize: %s: %w", files[keep[i]], aerr)
		}
	}

	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, nil, err
	}
	writeErrs := make([]error, len(outputs))
	forEach(workers, len(outputs), func(i int) {
		if ctx.Err() != nil {
			return
		}
		name := fmt.Sprintf("config%d", i+1)
		writeErrs[i] = os.WriteFile(filepath.Join(out, name), []byte(outputs[i]), 0o644)
	})
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	for _, werr := range writeErrs {
		if werr != nil {
			return 0, nil, werr
		}
	}
	return len(outputs), skipped, nil
}

// forEach runs n index-addressed work items over a pool of workers; each
// item writes only its own index, so results stay in input order.
func forEach(workers, n int, work func(i int)) {
	fanout.Each(n, workers, func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			work(i)
		}
	})
}
