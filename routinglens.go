// Package routinglens reverse engineers the routing design of an IP
// network from the static analysis of its routers' configuration files,
// implementing the methodology of "Routing Design in Operational Networks:
// A Look from the Inside" (SIGCOMM 2004).
//
// The entry point is the Analyzer: configured once with functional
// options, it takes a directory (or in-memory set) of Cisco IOS- or
// JunOS-style configuration files and returns a Design: the network's
// link-level topology, routing process graph, routing instances,
// address-space structure, packet-filter statistics, and architecture
// classification. From a Design you can compute route pathway graphs per
// router and run static reachability analysis against injected external
// routes.
//
//	an := routinglens.NewAnalyzer(routinglens.WithParallelism(8))
//	design, diags, err := an.AnalyzeDir(ctx, "testdata/mynet")
//	if err != nil { ... }
//	fmt.Println(design.Summary())
//	pw, _ := design.Pathway("edge-router-7")
//	fmt.Println(pw)
//
// Configuration files are read, hashed and parsed concurrently on a
// worker pool bounded by WithParallelism (GOMAXPROCS by default), but the
// output is
// deterministic: devices appear in sorted file-name order, diagnostics
// are sorted by (file, line, severity, message), and the Design — and
// its Summary() — are byte-identical at every parallelism level. The
// route simulator behind Design.Reachability sizes its prefix shards by
// GOMAXPROCS, not WithParallelism; its answers are identical too, and
// GOMAXPROCS=1 runs everything on one core.
//
// The heavy lifting lives in the internal packages; this package is the
// stable public surface, re-exporting the types a consumer needs.
package routinglens

import (
	"log/slog"

	"routinglens/internal/addrspace"
	"routinglens/internal/anonymize"
	"routinglens/internal/audit"
	"routinglens/internal/classify"
	"routinglens/internal/core"
	"routinglens/internal/designdiff"
	"routinglens/internal/devmodel"
	"routinglens/internal/instance"
	"routinglens/internal/netaddr"
	"routinglens/internal/netgen"
	"routinglens/internal/pathway"
	"routinglens/internal/reach"
	"routinglens/internal/simroute"
	"routinglens/internal/topology"
	"routinglens/internal/trace"
	"routinglens/internal/whatif"
)

// Re-exported model types. These aliases let consumers name the types the
// public functions return without importing internal packages.
type (
	// Design is the fully extracted routing design of one network.
	Design = core.Design
	// Network is the parsed model of a set of router configurations.
	Network = devmodel.Network
	// Device is the parsed model of one router configuration.
	Device = devmodel.Device
	// Diagnostic is a non-fatal configuration parsing issue, merged
	// across dialects with file, line, and severity preserved.
	Diagnostic = core.Diagnostic
	// Analyzer runs the extraction pipeline; build one with NewAnalyzer.
	Analyzer = core.Analyzer
	// AnalyzerOption configures an Analyzer (see the With* functions).
	AnalyzerOption = core.AnalyzerOption
	// Topology is the inferred link-level view of a network.
	Topology = topology.Topology
	// Instance is one routing instance (paper Section 3.2).
	Instance = instance.Instance
	// InstanceModel is the routing instance graph of a network.
	InstanceModel = instance.Model
	// PathwayGraph is a route pathway graph (paper Section 3.3).
	PathwayGraph = pathway.Graph
	// AddressBlock is one node of the address-space tree (Section 3.4).
	AddressBlock = addrspace.Block
	// Reachability is a static reachability analysis (Section 6.2).
	Reachability = reach.Analysis
	// ExternalRoute is a route injected at an external peer for
	// reachability analysis.
	ExternalRoute = simroute.ExternalRoute
	// DesignClass is the architecture category of a network (Section 7).
	DesignClass = classify.Design
	// Anonymizer rewrites configurations structure-preservingly
	// (Section 4.1).
	Anonymizer = anonymize.Anonymizer
	// Addr is an IPv4 address.
	Addr = netaddr.Addr
	// Prefix is an IPv4 subnet.
	Prefix = netaddr.Prefix
	// Corpus is the synthetic 31-network configuration corpus standing in
	// for the paper's proprietary data set.
	Corpus = netgen.Corpus
	// Survivability is the "what if" failure analysis (Section 8.1).
	Survivability = whatif.Analysis
	// AuditReport lists best-common-practice violations (Section 8.1).
	AuditReport = audit.Report
	// AuditFinding is one best-practice violation.
	AuditFinding = audit.Finding
	// DesignDiff is the longitudinal change report between two snapshots
	// of the same network (Section 8.2).
	DesignDiff = designdiff.Diff
	// TracePath is a reconstructed forwarding path (static traceroute).
	TracePath = trace.Path
)

// Design classifications (paper Section 7.1).
const (
	DesignBackbone   = classify.DesignBackbone
	DesignEnterprise = classify.DesignEnterprise
	DesignTier2      = classify.DesignTier2
	DesignOther      = classify.DesignOther
)

// Dialect hints for WithDialectHint.
const (
	// DialectAuto (the default) sniffs the dialect of each file.
	DialectAuto = core.DialectAuto
	// DialectIOS forces the Cisco IOS parser for every file.
	DialectIOS = core.DialectIOS
	// DialectJunOS forces the JunOS parser for every file.
	DialectJunOS = core.DialectJunOS
)

// NewAnalyzer builds an Analyzer from functional options. The zero
// configuration reads, hashes and parses the configuration files on
// GOMAXPROCS workers, logs through the process
// default logger, and sniffs each file's dialect:
//
//	an := routinglens.NewAnalyzer(
//		routinglens.WithParallelism(4),
//		routinglens.WithDialectHint(routinglens.DialectIOS),
//	)
//	design, diags, err := an.AnalyzeConfigs(ctx, "mynet", configs)
//
// An Analyzer is immutable and safe for concurrent use. Whatever the
// parallelism, the Design, its Summary(), and the diagnostics slice are
// identical to a sequential run.
func NewAnalyzer(opts ...AnalyzerOption) *Analyzer { return core.NewAnalyzer(opts...) }

// WithParallelism bounds the analyzer's worker pools: the one that reads,
// hashes and parses the configuration files, and the analysis stages'.
// n <= 0 means GOMAXPROCS; 1 runs them sequentially. The route
// simulator shards by GOMAXPROCS whatever n is.
func WithParallelism(n int) AnalyzerOption { return core.WithParallelism(n) }

// WithLogger routes the analyzer's structured logs to l instead of the
// process-wide default.
func WithLogger(l *slog.Logger) AnalyzerOption { return core.WithLogger(l) }

// WithDialectHint fixes the configuration dialect (DialectIOS,
// DialectJunOS) instead of sniffing each file (DialectAuto).
func WithDialectHint(d string) AnalyzerOption { return core.WithDialectHint(d) }

// Analyze extracts the routing design from an already-parsed network.
func Analyze(n *Network) *Design { return core.Analyze(n) }

// ParsePrefix parses "a.b.c.d/len" notation.
func ParsePrefix(s string) (Prefix, error) { return netaddr.ParsePrefix(s) }

// ParseAddr parses dotted-quad IPv4 notation.
func ParseAddr(s string) (Addr, error) { return netaddr.ParseAddr(s) }

// NewAnonymizer creates a structure-preserving configuration anonymizer
// keyed by the given secret.
func NewAnonymizer(key string) *Anonymizer { return anonymize.New(key) }

// GenerateCorpus deterministically generates the synthetic 31-network
// corpus used by the paper-reproduction experiments.
func GenerateCorpus(seed int64) *Corpus { return netgen.GenerateCorpus(seed) }
