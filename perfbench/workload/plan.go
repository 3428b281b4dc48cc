package workload

// Plan is what the end-to-end driver hands the traced replay: the
// operations one run performed, in order, with the daemon's timings and
// answers for them. The replay redoes the same operations in-process,
// timing each layer's public function, and checks its answers against
// the daemon's.
type Plan struct {
	Workload string `json:"workload"`
	// Corpus is a freshly written copy of the workload's corpus, one
	// subdirectory per network, which the replay edits as the run did.
	Corpus      string   `json:"corpus"`
	SnapshotDir string   `json:"snapshot_dir"`
	Nets        []string `json:"nets"`
	// Restart marks a setup that restores every network from snapshots
	// written by an untimed cold load (the prep run).
	Restart      bool    `json:"restart"`
	SetupQueries []Query `json:"setup_queries"`
	// SetupTime is the daemon's median setup_s.
	SetupTime float64 `json:"setup_s"`
	// Edits are the run's edit cycles to replay, in order; ReloadTimes
	// holds the daemon's reload round trip for each.
	Edits       []Edit    `json:"edits"`
	ReloadTimes []float64 `json:"reload_s"`
	// Queries are timed queries answered from generations the replay
	// rebuilds, in completion order.
	Queries []QuerySample `json:"queries"`
	// Answers are the daemon's distinct answers on those generations.
	Answers []Answer `json:"answers"`
}

// QuerySample is one timed query of the run.
type QuerySample struct {
	Query   Query   `json:"query"`
	Seq     int64   `json:"seq"`
	Hit     bool    `json:"hit"` // served from the daemon's query cache
	Latency float64 `json:"latency_s"`
}

// Answer is the daemon's canonical answer to one query from one
// generation.
type Answer struct {
	Query  Query  `json:"query"`
	Seq    int64  `json:"seq"`
	Answer string `json:"answer"`
}

// Report is the traced replay's output.
type Report struct {
	// Rows are the per-layer metrics, by name, in their declared units.
	Rows map[string]float64 `json:"rows"`
	// Checked counts the daemon answers compared; Mismatches describes
	// every one that differed from the layer call's.
	Checked    int      `json:"checked"`
	Mismatches []string `json:"mismatches"`
	// ReloadWall is the replay's wall time per replayed reload, without
	// the snapshot I/O it repeats to time it, for the
	// tracing-overhead comparison with the daemon's.
	ReloadWall float64 `json:"reload_wall_s"`
}
