// Package snapshot persists an analyzed network design as a versioned,
// deterministic binary file so a daemon can cold-start in milliseconds
// instead of re-parsing and re-analyzing every config.
//
// A snapshot stores the parsed device tree (the pure devmodel structs),
// the merged diagnostics, and the signature of every input file that
// produced them. It does NOT store the derived Design graph: that graph
// is cyclic (instances point back at devices and processes), and the
// analysis stages that rebuild it from the device tree are deterministic
// and take ~10ms on an 881-router corpus — cheap enough to re-run on
// load, which keeps the format small and the invariants simple.
//
// Snapshots are content-addressed: Key hashes the format version, the
// analysis version (bumped whenever parser or stage semantics change),
// and the sorted per-file signature set. A loader computes the expected
// key from the files on disk and refuses any snapshot whose stored key
// differs — stale snapshots are misses, never answers. Corrupt or
// version-skewed payloads are likewise refused: the encoding is strictly
// canonical (fixed-width big-endian integers, 0/1 booleans, sorted map
// keys, masked prefixes, an SHA-256 trailer, no trailing bytes), so for
// every byte slice Decode either fails or yields a value whose
// re-encoding is byte-identical to the input. Callers fall back to full
// re-analysis on any error: slower, never wrong — the same policy as the
// parse cache.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"routinglens/internal/devmodel"
	"routinglens/internal/diag"
	"routinglens/internal/netaddr"
)

// FormatVersion is bumped whenever the wire layout changes. Decode
// refuses any other version; the caller re-analyzes and rewrites.
const FormatVersion uint16 = 1

// FileExt is the conventional extension for snapshot files; the
// analyzer stores one `<network>.rlsnap` per network directory.
const FileExt = ".rlsnap"

// magic identifies a routinglens snapshot. Eight bytes so a truncated
// or foreign file is rejected before any length fields are trusted.
var magic = [8]byte{'R', 'L', 'S', 'N', 'A', 'P', '0', '1'}

// checksumSize is the SHA-256 trailer appended after the body.
const checksumSize = sha256.Size

// FileSig is one input file's identity in the signature set: the same
// (dialect, name, normalized-content hash) triple the parse cache keys
// on, plus the content size used as the cache admission cost when a
// loaded snapshot repopulates the parse cache.
type FileSig struct {
	Dialect string
	Name    string
	Sum     [sha256.Size]byte
	Size    int64
}

// Diag mirrors core.Diagnostic without importing core (core imports
// this package). Field-for-field identical; the analyzer converts.
type Diag struct {
	File     string
	Line     int
	Severity diag.Severity
	Dialect  string
	Msg      string
}

// Snapshot is the full persisted state of one analyzed network.
type Snapshot struct {
	// AnalysisVersion is the analyzer build version that produced the
	// devices and diagnostics (core.AnalysisVersion at write time).
	AnalysisVersion string
	// Key is the content address: Key(AnalysisVersion, Files) at write
	// time. Stored so a loader can reject a stale snapshot without
	// decoding the body — and so renamed files can't alias.
	Key string
	// NetworkName is the network the snapshot was taken of.
	NetworkName string
	// Devices is the parsed device tree, in the deterministic
	// (filename-sorted) order the analyzer produced.
	Devices []*devmodel.Device
	// Diags is the merged, sorted diagnostic list from the analysis,
	// including the "file skipped" markers for unparseable files.
	Diags []Diag
	// Files is the signature set, sorted by Name.
	Files []FileSig
}

// Key computes the content address for a signature set: a hex SHA-256
// over the format version, the analysis version, and every file's
// (dialect, name, sum) in name order. Size is deliberately excluded —
// the normalized-content hash already pins the bytes, and two files
// whose raw sizes differ only by normalization-stripped noise should
// share a key exactly like they share a file key (parsecache.KeyFor).
func Key(analysisVersion string, files []FileSig) string {
	sorted := make([]FileSig, len(files))
	copy(sorted, files)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })

	h := sha256.New()
	var e enc
	e.u16(FormatVersion)
	e.str(analysisVersion)
	e.count(len(sorted))
	for _, f := range sorted {
		e.str(f.Dialect)
		e.str(f.Name)
		e.raw(f.Sum[:])
	}
	h.Write(e.buf.Bytes())
	return hex.EncodeToString(h.Sum(nil))
}

// Encode serializes the snapshot in canonical form: header (magic,
// format version, analysis version, key, network name), body, SHA-256
// trailer. Files and map keys are written sorted so the bytes depend
// only on the logical content, never on map iteration or worker order.
func Encode(s *Snapshot) []byte {
	var e enc
	e.raw(magic[:])
	e.u16(FormatVersion)
	e.str(s.AnalysisVersion)
	e.str(s.Key)
	e.str(s.NetworkName)

	e.count(len(s.Devices))
	for _, d := range s.Devices {
		e.device(d)
	}
	e.count(len(s.Diags))
	for _, d := range s.Diags {
		e.str(d.File)
		e.i64(int64(d.Line))
		e.i64(int64(d.Severity))
		e.str(d.Dialect)
		e.str(d.Msg)
	}
	files := make([]FileSig, len(s.Files))
	copy(files, s.Files)
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	e.count(len(files))
	for _, f := range files {
		e.str(f.Dialect)
		e.str(f.Name)
		e.raw(f.Sum[:])
		e.i64(f.Size)
	}

	sum := sha256.Sum256(e.buf.Bytes())
	e.raw(sum[:])
	return e.buf.Bytes()
}

// Sentinel errors for the refusal classes. All of them mean "fall back
// to full re-analysis"; they are distinguished so the caller can count
// stale keys as misses and everything else as invalid.
var (
	ErrMagic    = errors.New("snapshot: not a snapshot file")
	ErrVersion  = errors.New("snapshot: unsupported format version")
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	ErrFormat   = errors.New("snapshot: malformed payload")
)

// Decode parses a canonical snapshot. It is strict: every refusal class
// (wrong magic, format-version skew, checksum mismatch, truncation,
// non-minimal or out-of-range fields, unsorted keys, trailing bytes)
// returns an error, and a successful decode re-encodes to exactly the
// input bytes. Decode never panics on arbitrary input (fuzzed).
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+2+checksumSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrMagic, len(data))
	}
	if !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, ErrMagic
	}
	body, trailer := data[:len(data)-checksumSize], data[len(data)-checksumSize:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, ErrChecksum
	}

	d := &dec{data: body, off: len(magic)}
	if v := d.u16(); d.err == nil && v != FormatVersion {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrVersion, v, FormatVersion)
	}
	s := &Snapshot{
		AnalysisVersion: d.str(),
		Key:             d.str(),
		NetworkName:     d.str(),
	}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		s.Devices = append(s.Devices, d.device())
	}
	n = d.count()
	for i := 0; i < n && d.err == nil; i++ {
		dg := Diag{File: d.str(), Line: int(d.i64()), Severity: diag.Severity(d.i64())}
		dg.Dialect = d.str()
		dg.Msg = d.str()
		if d.err == nil && (dg.Severity < diag.SevInfo || dg.Severity > diag.SevError) {
			d.fail("diagnostic severity %d out of range", dg.Severity)
		}
		s.Diags = append(s.Diags, dg)
	}
	n = d.count()
	for i := 0; i < n && d.err == nil; i++ {
		var f FileSig
		f.Dialect = d.str()
		f.Name = d.str()
		d.rawInto(f.Sum[:])
		f.Size = d.i64()
		if i > 0 && d.err == nil && s.Files[i-1].Name >= f.Name {
			d.fail("file signatures not strictly sorted at %q", f.Name)
		}
		s.Files = append(s.Files, f)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(body)-d.off)
	}
	return s, nil
}

// Write encodes the snapshot and atomically replaces path: the bytes
// land in a temp file in the same directory first, so readers only ever
// see a complete snapshot or the previous one, never a torn write.
func Write(path string, s *Snapshot) error {
	data := Encode(s)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Load reads and decodes path. A missing file is reported via the
// wrapped os error (check with os.IsNotExist) so the caller can count
// it as a miss rather than corruption.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// --- encoder ---

type enc struct{ buf bytes.Buffer }

func (e *enc) raw(b []byte) { e.buf.Write(b) }

func (e *enc) u8(v uint8) { e.buf.WriteByte(v) }

func (e *enc) u16(v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	e.buf.Write(b[:])
}

func (e *enc) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	e.buf.Write(b[:])
}

func (e *enc) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf.Write(b[:])
}

// i64 writes two's complement in a fixed 8 bytes; varints are avoided
// throughout because Go's Uvarint accepts non-minimal encodings, which
// would break the "decode success implies byte-identical re-encode"
// canonical-form guarantee.
func (e *enc) i64(v int64) { e.u64(uint64(v)) }

func (e *enc) boolv(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) str(s string) {
	if len(s) > math.MaxUint32 {
		panic("snapshot: string exceeds 4GiB")
	}
	e.u32(uint32(len(s)))
	e.buf.WriteString(s)
}

func (e *enc) count(n int) {
	if n < 0 || n > math.MaxUint32 {
		panic("snapshot: count out of range")
	}
	e.u32(uint32(n))
}

func (e *enc) strs(ss []string) {
	e.count(len(ss))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *enc) prefix(p netaddr.Prefix) {
	e.u32(uint32(p.Addr()))
	e.u8(uint8(p.Bits()))
}

func (e *enc) device(d *devmodel.Device) {
	e.str(d.Hostname)
	e.str(d.FileName)
	e.i64(int64(d.RawLines))

	e.count(len(d.Interfaces))
	for _, it := range d.Interfaces {
		e.str(it.Name)
		e.str(it.Description)
		e.count(len(it.Addrs))
		for _, a := range it.Addrs {
			e.u32(uint32(a.Addr))
			e.u32(uint32(a.Mask))
			e.boolv(a.Secondary)
		}
		e.boolv(it.Unnumbered)
		e.boolv(it.Shutdown)
		e.str(it.AccessGroupIn)
		e.str(it.AccessGroupOut)
		e.str(it.Encapsulation)
		e.boolv(it.PointToPoint)
	}

	e.count(len(d.Processes))
	for _, p := range d.Processes {
		e.i64(int64(p.Protocol))
		e.str(p.ID)
		e.u32(p.ASN)
		e.count(len(p.Networks))
		for _, ns := range p.Networks {
			e.u32(uint32(ns.Addr))
			e.u32(uint32(ns.Wildcard))
			e.boolv(ns.HasWild)
			e.str(ns.Area)
			e.u32(uint32(ns.Mask))
			e.boolv(ns.HasMask)
		}
		e.count(len(p.Redistributions))
		for _, r := range p.Redistributions {
			e.i64(int64(r.From))
			e.str(r.FromID)
			e.str(r.RouteMap)
			e.str(r.Metric)
			e.boolv(r.Subnets)
			e.str(r.MetricTyp)
		}
		e.count(len(p.Neighbors))
		for _, nb := range p.Neighbors {
			e.u32(uint32(nb.Addr))
			e.u32(nb.RemoteAS)
			e.str(nb.Description)
			e.str(nb.RouteMapIn)
			e.str(nb.RouteMapOut)
			e.str(nb.DistributeListIn)
			e.str(nb.DistributeListOut)
			e.str(nb.PrefixListIn)
			e.str(nb.PrefixListOut)
			e.str(nb.UpdateSource)
			e.boolv(nb.RouteReflectorClient)
			e.str(nb.PeerGroup)
			e.boolv(nb.IsPeerGroupName)
		}
		e.count(len(p.DistributeLists))
		for _, dl := range p.DistributeLists {
			e.str(dl.ACL)
			e.str(dl.Direction)
			e.str(dl.Interface)
		}
		e.strs(p.PassiveIntfs)
		e.boolv(p.PassiveDefault)
		e.boolv(p.DefaultOriginate)
		e.u32(uint32(p.RouterID))
		e.boolv(p.HasRouterID)
	}

	e.count(len(d.Statics))
	for _, st := range d.Statics {
		e.prefix(st.Prefix)
		e.u32(uint32(st.NextHop))
		e.boolv(st.HasHop)
		e.str(st.ExitIntf)
		e.i64(int64(st.Distance))
	}

	aclNames := sortedKeys(d.AccessLists)
	e.count(len(aclNames))
	for _, name := range aclNames {
		acl := d.AccessLists[name]
		e.str(name)
		e.str(acl.Name)
		e.boolv(acl.Extended)
		e.count(len(acl.Clauses))
		for _, c := range acl.Clauses {
			e.i64(int64(c.Action))
			e.str(c.Proto)
			e.boolv(c.SrcAny)
			e.u32(uint32(c.Src))
			e.u32(uint32(c.SrcWildcard))
			e.boolv(c.SrcHost)
			e.boolv(c.DstAny)
			e.u32(uint32(c.Dst))
			e.u32(uint32(c.DstWildcard))
			e.boolv(c.DstHost)
			e.str(c.SrcPortOp)
			e.strs(c.SrcPorts)
			e.str(c.DstPortOp)
			e.strs(c.DstPorts)
			e.boolv(c.Log)
		}
	}

	rmNames := sortedKeys(d.RouteMaps)
	e.count(len(rmNames))
	for _, name := range rmNames {
		rm := d.RouteMaps[name]
		e.str(name)
		e.str(rm.Name)
		e.count(len(rm.Entries))
		for _, en := range rm.Entries {
			e.i64(int64(en.Action))
			e.i64(int64(en.Sequence))
			e.strs(en.MatchACLs)
			e.strs(en.MatchTags)
			e.strs(en.MatchPrefixLists)
			e.str(en.SetTag)
			e.str(en.SetMetric)
			e.str(en.SetLocalPref)
			e.strs(en.SetCommunity)
		}
	}

	plNames := sortedKeys(d.PrefixLists)
	e.count(len(plNames))
	for _, name := range plNames {
		pl := d.PrefixLists[name]
		e.str(name)
		e.str(pl.Name)
		e.count(len(pl.Entries))
		for _, en := range pl.Entries {
			e.i64(int64(en.Action))
			e.i64(int64(en.Seq))
			e.prefix(en.Prefix)
			e.i64(int64(en.Ge))
			e.i64(int64(en.Le))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// --- decoder ---

type dec struct {
	data []byte
	off  int
	err  error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.data)-d.off {
		d.fail("need %d bytes at offset %d, have %d", n, d.off, len(d.data)-d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) boolv() bool {
	b := d.u8()
	if d.err == nil && b > 1 {
		d.fail("non-canonical bool %d", b)
	}
	return b == 1
}

func (d *dec) str() string {
	n := d.u32()
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// count reads an element count and bounds it by the remaining bytes:
// every element encodes at least one byte, so any count larger than the
// remainder is malformed — this caps allocations at the input size.
func (d *dec) count() int {
	n := d.u32()
	if d.err == nil && int(n) > len(d.data)-d.off {
		d.fail("count %d exceeds remaining %d bytes", n, len(d.data)-d.off)
		return 0
	}
	return int(n)
}

func (d *dec) rawInto(dst []byte) {
	b := d.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

func (d *dec) strs() []string {
	n := d.count()
	var ss []string
	for i := 0; i < n && d.err == nil; i++ {
		ss = append(ss, d.str())
	}
	return ss
}

// prefix rejects unmasked host bits: netaddr.Prefix always stores the
// masked address, so any other encoding is non-canonical.
func (d *dec) prefix() netaddr.Prefix {
	addr := netaddr.Addr(d.u32())
	bits := d.u8()
	if d.err != nil {
		return netaddr.Prefix{}
	}
	if bits > 32 {
		d.fail("prefix bits %d > 32", bits)
		return netaddr.Prefix{}
	}
	p := netaddr.PrefixFrom(addr, int(bits))
	if p.Addr() != addr {
		d.fail("prefix %v has host bits below /%d", addr, bits)
		return netaddr.Prefix{}
	}
	return p
}

func (d *dec) device() *devmodel.Device {
	dev := devmodel.NewDevice()
	dev.Hostname = d.str()
	dev.FileName = d.str()
	dev.RawLines = int(d.i64())

	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		it := &devmodel.Interface{Name: d.str(), Description: d.str()}
		na := d.count()
		for j := 0; j < na && d.err == nil; j++ {
			it.Addrs = append(it.Addrs, devmodel.InterfaceAddr{
				Addr:      netaddr.Addr(d.u32()),
				Mask:      netaddr.Mask(d.u32()),
				Secondary: d.boolv(),
			})
		}
		it.Unnumbered = d.boolv()
		it.Shutdown = d.boolv()
		it.AccessGroupIn = d.str()
		it.AccessGroupOut = d.str()
		it.Encapsulation = d.str()
		it.PointToPoint = d.boolv()
		dev.Interfaces = append(dev.Interfaces, it)
	}

	n = d.count()
	for i := 0; i < n && d.err == nil; i++ {
		p := &devmodel.RoutingProcess{
			Protocol: devmodel.Protocol(d.i64()),
			ID:       d.str(),
			ASN:      d.u32(),
		}
		nn := d.count()
		for j := 0; j < nn && d.err == nil; j++ {
			p.Networks = append(p.Networks, devmodel.NetworkStmt{
				Addr:     netaddr.Addr(d.u32()),
				Wildcard: netaddr.Mask(d.u32()),
				HasWild:  d.boolv(),
				Area:     d.str(),
				Mask:     netaddr.Mask(d.u32()),
				HasMask:  d.boolv(),
			})
		}
		nn = d.count()
		for j := 0; j < nn && d.err == nil; j++ {
			p.Redistributions = append(p.Redistributions, devmodel.Redistribution{
				From:      devmodel.Protocol(d.i64()),
				FromID:    d.str(),
				RouteMap:  d.str(),
				Metric:    d.str(),
				Subnets:   d.boolv(),
				MetricTyp: d.str(),
			})
		}
		nn = d.count()
		for j := 0; j < nn && d.err == nil; j++ {
			p.Neighbors = append(p.Neighbors, devmodel.BGPNeighbor{
				Addr:                 netaddr.Addr(d.u32()),
				RemoteAS:             d.u32(),
				Description:          d.str(),
				RouteMapIn:           d.str(),
				RouteMapOut:          d.str(),
				DistributeListIn:     d.str(),
				DistributeListOut:    d.str(),
				PrefixListIn:         d.str(),
				PrefixListOut:        d.str(),
				UpdateSource:         d.str(),
				RouteReflectorClient: d.boolv(),
				PeerGroup:            d.str(),
				IsPeerGroupName:      d.boolv(),
			})
		}
		nn = d.count()
		for j := 0; j < nn && d.err == nil; j++ {
			p.DistributeLists = append(p.DistributeLists, devmodel.DistListBinding{
				ACL:       d.str(),
				Direction: d.str(),
				Interface: d.str(),
			})
		}
		p.PassiveIntfs = d.strs()
		p.PassiveDefault = d.boolv()
		p.DefaultOriginate = d.boolv()
		p.RouterID = netaddr.Addr(d.u32())
		p.HasRouterID = d.boolv()
		dev.Processes = append(dev.Processes, p)
	}

	n = d.count()
	for i := 0; i < n && d.err == nil; i++ {
		dev.Statics = append(dev.Statics, devmodel.StaticRoute{
			Prefix:   d.prefix(),
			NextHop:  netaddr.Addr(d.u32()),
			HasHop:   d.boolv(),
			ExitIntf: d.str(),
			Distance: int(d.i64()),
		})
	}

	n = d.count()
	var prevKey string
	for i := 0; i < n && d.err == nil; i++ {
		key := d.str()
		if i > 0 && d.err == nil && prevKey >= key {
			d.fail("access-list keys not strictly sorted at %q", key)
		}
		prevKey = key
		acl := &devmodel.AccessList{Name: d.str(), Extended: d.boolv()}
		nc := d.count()
		for j := 0; j < nc && d.err == nil; j++ {
			c := devmodel.ACLClause{
				Action:      devmodel.ACLAction(d.i64()),
				Proto:       d.str(),
				SrcAny:      d.boolv(),
				Src:         netaddr.Addr(d.u32()),
				SrcWildcard: netaddr.Mask(d.u32()),
				SrcHost:     d.boolv(),
				DstAny:      d.boolv(),
				Dst:         netaddr.Addr(d.u32()),
				DstWildcard: netaddr.Mask(d.u32()),
				DstHost:     d.boolv(),
				SrcPortOp:   d.str(),
				SrcPorts:    d.strs(),
				DstPortOp:   d.str(),
				DstPorts:    d.strs(),
				Log:         d.boolv(),
			}
			acl.Clauses = append(acl.Clauses, c)
		}
		if d.err == nil {
			dev.AccessLists[key] = acl
		}
	}

	n = d.count()
	prevKey = ""
	for i := 0; i < n && d.err == nil; i++ {
		key := d.str()
		if i > 0 && d.err == nil && prevKey >= key {
			d.fail("route-map keys not strictly sorted at %q", key)
		}
		prevKey = key
		rm := &devmodel.RouteMap{Name: d.str()}
		ne := d.count()
		for j := 0; j < ne && d.err == nil; j++ {
			rm.Entries = append(rm.Entries, devmodel.RouteMapEntry{
				Action:           devmodel.ACLAction(d.i64()),
				Sequence:         int(d.i64()),
				MatchACLs:        d.strs(),
				MatchTags:        d.strs(),
				MatchPrefixLists: d.strs(),
				SetTag:           d.str(),
				SetMetric:        d.str(),
				SetLocalPref:     d.str(),
				SetCommunity:     d.strs(),
			})
		}
		if d.err == nil {
			dev.RouteMaps[key] = rm
		}
	}

	n = d.count()
	prevKey = ""
	for i := 0; i < n && d.err == nil; i++ {
		key := d.str()
		if i > 0 && d.err == nil && prevKey >= key {
			d.fail("prefix-list keys not strictly sorted at %q", key)
		}
		prevKey = key
		pl := &devmodel.PrefixList{Name: d.str()}
		ne := d.count()
		for j := 0; j < ne && d.err == nil; j++ {
			pl.Entries = append(pl.Entries, devmodel.PrefixListEntry{
				Action: devmodel.ACLAction(d.i64()),
				Seq:    int(d.i64()),
				Prefix: d.prefix(),
				Ge:     int(d.i64()),
				Le:     int(d.i64()),
			})
		}
		if d.err == nil {
			dev.PrefixLists[key] = pl
		}
	}

	return dev
}
