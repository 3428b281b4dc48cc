package main

import (
	"math"
	"testing"

	"routinglens/perfbench/workload"
)

// TestRowsAddUpToOperationTimes feeds the row composition known layer times
// and checks that each operation kind's rows plus its unattributed row
// add up to that kind's measured operation time.
func TestRowsAddUpToOperationTimes(t *testing.T) {
	plan := &workload.Plan{
		SetupTime:   5.0,
		Edits:       make([]workload.Edit, 2),
		ReloadTimes: []float64{4.0, 4.2},
	}
	r := &replayer{plan: plan, reload: newTracer(), setup: newTracer(), query: newTracer(),
		rep: &workload.Report{Rows: map[string]float64{}}}
	r.reload.secs = map[string]float64{"read_hash": 0.02, "parse": 0.01, "topology": 0.004, "simroute": 6.6, "reach.views": 0.4}
	r.reload.counts = map[string]float64{"parse.files": 2, "simroute.rounds": 34, "simroute.alloc_mb": 1200, "snapshot.bytes": 900}
	r.setup.secs = map[string]float64{"read_hash": 0.1, "parse": 0.2, "snapshot.load": 0.001, "topology": 0.01,
		"filters": 0.002, "simroute": 3.3, "reach.views": 0.2, "answers": 0.01}
	r.query.secs = map[string]float64{"latency": 0.003 * 4, "pathway": 0.0004, "reach.block": 0.0002}
	r.rep.Rows["query.count"] = 4
	r.rows()
	rows := r.rep.Rows

	sum := func(names ...string) float64 {
		s := 0.0
		for _, n := range names {
			v, ok := rows[n]
			if !ok {
				t.Fatalf("row %s missing", n)
			}
			s += v
		}
		return s
	}
	near := func(kind string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s rows add up to %v, want %v", kind, got, want)
		}
	}
	near("reload", sum("read_hash.s", "parse.s", "topology.s", "simroute.s", "reach.views.s", "reload.unattributed.s"), 4.1)
	near("setup", sum("setup.ingest.s", "setup.stages.s", "setup.simroute.s", "setup.reach.views.s",
		"setup.answers.s", "setup.unattributed.s"), 5.0)
	near("query", sum("pathway.s", "reach.block.s", "whatif.s")+rows["query.unattributed.ms"]/1000, 0.003)

	if rows["simroute.s"] != 3.3 || rows["parse.files"] != 1 || rows["simroute.rounds"] != 17 {
		t.Errorf("reload rows are not per reload: %v", rows)
	}
	if _, ok := rows["query.count"]; ok {
		t.Error("the query count leaked into the rows")
	}
}
