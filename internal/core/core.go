// Package core assembles the complete routing-design extraction pipeline:
// parse a network's configuration files, infer its topology, build the
// routing process graph, compute routing instances, recover the address
// space structure, analyze packet filters, and classify the design. It is
// the implementation behind the module's public routinglens package.
package core

import (
	"context"
	"fmt"
	"strings"

	"routinglens/internal/addrspace"
	"routinglens/internal/audit"
	"routinglens/internal/classify"
	"routinglens/internal/designdiff"
	"routinglens/internal/devmodel"
	"routinglens/internal/dot"
	"routinglens/internal/filters"
	"routinglens/internal/instance"
	"routinglens/internal/netaddr"
	"routinglens/internal/pathway"
	"routinglens/internal/procgraph"
	"routinglens/internal/reach"
	"routinglens/internal/report"
	"routinglens/internal/simroute"
	"routinglens/internal/telemetry"
	"routinglens/internal/topology"
	"routinglens/internal/trace"
	"routinglens/internal/whatif"
)

// Metric names the pipeline records into the run's telemetry registry.
const (
	MetricDevicesParsed  = "routinglens_devices_parsed_total"
	MetricFilesSkipped   = "routinglens_files_skipped_total"
	MetricConfigLines    = "routinglens_config_lines_total"
	MetricDiagnostics    = "routinglens_diagnostics_total"
	MetricParseLinesRate = "routinglens_parse_lines_per_second"
	MetricInstances      = "routinglens_instances"
	MetricProcesses      = "routinglens_processes"
	MetricParallelism    = "routinglens_parallelism"

	// Parse-reuse metrics: files an analysis took from the previous
	// Result (or a WithCache cache) and files it parsed, counted in the
	// deterministic merge loop, so exact at any parallelism. Evictions
	// and entries come only from a WithCache analyzer.
	MetricCacheHits      = "routinglens_parsecache_hits_total"
	MetricCacheMisses    = "routinglens_parsecache_misses_total"
	MetricCacheEvictions = "routinglens_parsecache_evictions_total"
	MetricCacheEntries   = "routinglens_parsecache_entries"
	// MetricFilesReparsed is how many files the most recent analysis
	// parsed fresh (cache misses plus files that failed to parse) —
	// after a one-file edit, an incremental reload reads 1 here.
	MetricFilesReparsed = "routinglens_reload_files_reparsed"

	// Snapshot metrics (only emitted when WithSnapshotDir is set),
	// labeled by net. Every load attempt ends in exactly one of
	// loads (restored), misses (absent or stale key), or invalid
	// (corrupt, truncated, or version-skewed payload — refused, full
	// re-analysis); writes count refreshed snapshot files.
	MetricSnapshotLoads   = "routinglens_snapshot_loads_total"
	MetricSnapshotMisses  = "routinglens_snapshot_misses_total"
	MetricSnapshotWrites  = "routinglens_snapshot_writes_total"
	MetricSnapshotInvalid = "routinglens_snapshot_invalid_total"
)

// registerHelp attaches export HELP strings to the pipeline metrics; it
// is idempotent, so the hot path may call it per run.
func registerHelp(reg *telemetry.Registry) {
	reg.SetHelp(MetricDevicesParsed, "Router configurations parsed, by dialect.")
	reg.SetHelp(MetricFilesSkipped, "Configuration files skipped by a lenient analysis because they failed to parse.")
	reg.SetHelp(MetricConfigLines, "Configuration lines (or JunOS statements) parsed.")
	reg.SetHelp(MetricDiagnostics, "Parse diagnostics emitted, by severity.")
	reg.SetHelp(MetricParseLinesRate, "Parse throughput of the last network, in lines per second.")
	reg.SetHelp(MetricInstances, "Routing instances extracted, by network.")
	reg.SetHelp(MetricProcesses, "Routing process graph nodes, by network.")
	reg.SetHelp(MetricParallelism, "Worker-pool size of the last parse stage.")
	reg.SetHelp(MetricCacheHits, "Files whose parse was taken from the previous analysis of the network instead of parsed.")
	reg.SetHelp(MetricCacheMisses, "Files parsed because the previous analysis of the network had no parse of that content.")
	reg.SetHelp(MetricCacheEvictions, "Parse-cache entries evicted by the LRU bounds.")
	reg.SetHelp(MetricCacheEntries, "Parse-cache resident entries after the last analysis.")
	reg.SetHelp(MetricFilesReparsed, "Files the most recent analysis parsed fresh (1 after a one-file edit).")
	reg.SetHelp(MetricSnapshotLoads, "Analyzed designs restored from a snapshot instead of full re-analysis, by net.")
	reg.SetHelp(MetricSnapshotMisses, "Snapshot load attempts that found no snapshot or a stale content key, by net.")
	reg.SetHelp(MetricSnapshotWrites, "Snapshot files written after a full analysis, by net.")
	reg.SetHelp(MetricSnapshotInvalid, "Snapshots refused as corrupt, truncated, or version-skewed (full re-analysis instead), by net.")
	reg.SetHelp(telemetry.StageSecondsMetric, "Pipeline stage latency, by stage.")
}

// Design is the reverse-engineered routing design of one network: every
// global view the paper derives from the per-router configuration state.
type Design struct {
	Network        *devmodel.Network
	Topology       *topology.Topology
	ProcessGraph   *procgraph.Graph
	Instances      *instance.Model
	AddressSpace   *addrspace.Structure
	Filters        *filters.NetworkStats
	Classification classify.Evidence
}

// Analyze runs the full extraction pipeline over a parsed network with
// the default Analyzer configuration.
func Analyze(n *devmodel.Network) *Design {
	return AnalyzeContext(context.Background(), n)
}

// AnalyzeContext runs the full extraction pipeline over a parsed
// network, emitting one telemetry span per stage (topology, procgraph,
// instance, addrspace, filters, classify) into the context's collector
// and recording instance/process gauges in its registry.
func AnalyzeContext(ctx context.Context, n *devmodel.Network) *Design {
	return NewAnalyzer().Analyze(ctx, n)
}

// Pathway computes the route pathway graph for the named router.
func (d *Design) Pathway(hostname string) (*pathway.Graph, error) {
	return pathway.Compute(d.Instances, hostname)
}

// Reachability runs the control-plane simulation with the given external
// route injections and returns the reachability analysis.
func (d *Design) Reachability(external []simroute.ExternalRoute) *reach.Analysis {
	return reach.Analyze(d.Instances, d.AddressSpace, external, nil)
}

// Summary renders a human-readable overview of the design: the routing
// instance graph, classification evidence, address blocks, and filter
// statistics.
func (d *Design) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network %s: %d routers, %d interfaces (%d unnumbered)\n",
		d.Network.Name, len(d.Network.Devices), d.Topology.TotalInterfaces, d.Topology.UnnumberedInterfaces)
	fmt.Fprintf(&b, "design classification: %s\n", d.Classification)
	fmt.Fprintf(&b, "\nrouting instances (%d):\n", len(d.Instances.Instances))

	t := report.NewTable("id", "instance", "routers", "external peers")
	shown := 0
	for _, in := range d.Instances.Instances {
		if shown >= 40 && in.Size() == 1 {
			continue // keep giant singleton lists out of the summary
		}
		shown++
		t.Addf("%d\t%s\t%d\t%d", in.ID, in.Label(), in.Size(), in.ExternalPeers)
	}
	b.WriteString(t.String())
	if shown < len(d.Instances.Instances) {
		fmt.Fprintf(&b, "... and %d more single-router instances\n", len(d.Instances.Instances)-shown)
	}

	fmt.Fprintf(&b, "\ninstance-graph edges (%d):\n", len(d.Instances.Edges))
	et := report.NewTable("from", "to", "kind", "policies")
	for _, e := range d.Instances.Edges {
		if len(et.String()) > 8192 {
			break
		}
		from, to := "External World", "External World"
		if e.From != nil {
			from = fmt.Sprintf("%d %s", e.From.ID, e.From.Label())
		}
		if e.To != nil {
			to = fmt.Sprintf("%d %s", e.To.ID, e.To.Label())
		}
		pol := strings.Join(e.Policies(), ",")
		if pol == "" {
			pol = "-"
		}
		et.Addf("%s\t%s\t%s\t%s", from, to, e.Kind.String(), pol)
	}
	b.WriteString(et.String())

	fmt.Fprintf(&b, "\ntop-level address blocks: %d\n", len(d.AddressSpace.Roots))
	if d.Filters.HasFilters {
		fmt.Fprintf(&b, "packet filters: %d applied rules, %.0f%% on internal links\n",
			d.Filters.TotalRules, d.Filters.PercentInternal())
	} else {
		b.WriteString("packet filters: none\n")
	}
	return b.String()
}

// SuspectedMissingRouters applies the address-space heuristic for
// detecting routers absent from the corpus.
func (d *Design) SuspectedMissingRouters() []addrspace.Suspect {
	return addrspace.SuspectMissingRouters(d.Topology, d.AddressSpace)
}

// Survivability runs the "what if" failure analysis (paper Section 8.1):
// which single router or adjacency failures partition a routing instance,
// which routers bridge instance pairs, and which destinations rely on
// static routes from multiple routers.
func (d *Design) Survivability() *whatif.Analysis {
	return whatif.Analyze(d.Instances)
}

// Audit checks the design against best common practices (paper Section
// 8.1's vulnerability assessment): unfiltered edge interfaces, EBGP
// sessions without route filters, unfiltered redistribution, and
// half-configured adjacencies.
func (d *Design) Audit() *audit.Report {
	return audit.Run(d.Network, d.Topology, d.ProcessGraph)
}

// DiffFrom compares an older snapshot of the same network against this
// one (paper Section 8.2's longitudinal analysis).
func (d *Design) DiffFrom(older *Design) *designdiff.Diff {
	return designdiff.Compare(older.Instances, d.Instances)
}

// Influence computes the forward blast-radius of a router: every instance
// and router its routes can propagate to.
func (d *Design) Influence(hostname string) (*pathway.Influence, error) {
	return pathway.ComputeInfluence(d.Instances, hostname)
}

// MonitorPlacement suggests a minimal set of routing instances to observe
// so that every external route entry point is covered (paper Section 8.1:
// "where to place the measurement devices").
func (d *Design) MonitorPlacement() *pathway.MonitorPlacement {
	return pathway.PlaceMonitors(d.Instances)
}

// DOTInstanceGraph renders the routing instance graph in Graphviz DOT.
func (d *Design) DOTInstanceGraph() string { return dot.InstanceGraph(d.Instances) }

// DOTProcessGraph renders the routing process graph in Graphviz DOT.
func (d *Design) DOTProcessGraph() string { return dot.ProcessGraph(d.ProcessGraph) }

// DOTPathway renders a router's route pathway graph in Graphviz DOT.
func (d *Design) DOTPathway(hostname string) (string, error) {
	pw, err := d.Pathway(hostname)
	if err != nil {
		return "", err
	}
	return dot.Pathway(pw), nil
}

// Trace reconstructs the forwarding path implied by the design from the
// named source router toward the destination address (a static
// traceroute), under the given external route injections.
func (d *Design) Trace(src string, dest netaddr.Addr, external []simroute.ExternalRoute) (*trace.Path, error) {
	an := d.Reachability(external)
	return trace.New(an.Sim).Trace(src, dest)
}

// InstanceBlocks associates each routing instance with the top-level
// address blocks attached to it (paper Section 3.4: "we can associate with
// each routing instance the set of address blocks that are connected to
// the instance"), keyed by instance ID. An address is attached to an
// instance when a member process covers the interface carrying it.
func (d *Design) InstanceBlocks() map[int][]netaddr.Prefix {
	out := make(map[int][]netaddr.Prefix, len(d.Instances.Instances))
	for _, in := range d.Instances.Instances {
		var addrs []netaddr.Addr
		for _, node := range in.Nodes {
			for _, i := range node.Device.Interfaces {
				for _, a := range i.Addrs {
					if node.Proc.CoversAddr(a.Addr) {
						addrs = append(addrs, a.Addr)
					}
				}
			}
		}
		blocks := addrspace.InstanceBlocks(d.AddressSpace, addrs)
		ps := make([]netaddr.Prefix, len(blocks))
		for i, b := range blocks {
			ps[i] = b.Prefix
		}
		out[in.ID] = ps
	}
	return out
}
