// Drift test between the static placement annotations and the executor:
// AnnotatePlacement mirrors build()'s branching by hand, so this file
// executes the same plans with a collector attached and cross-checks
// every "fragments ×N"-style prediction against whether the measured
// stats tree actually grew per-worker fragment nodes. When build()
// changes a placement decision without the mirror following, this test
// is the tripwire.
package parallel_test

import (
	"context"
	"strings"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/krel"
)

// placementPlans is the plan set the drift test sweeps: one per
// placement-relevant build() case.
func placementPlans() []engine.Plan {
	scanL := engine.ScanP{Name: "l"}
	scanR := engine.ScanP{Name: "r"}
	return []engine.Plan{
		engine.FilterP{Pred: algebra.Gt(algebra.Col("v"), algebra.IntC(10)), In: scanL},
		bigPipelinePlan(), // Project → equi Join → Filter → Scan
		engine.JoinP{L: scanL, R: scanR, Pred: algebra.BoolC(true)}, // overlap sweep: sequential
		engine.UnionP{L: scanL, R: scanL},
		engine.CoalesceP{In: scanL},
		engine.CoalesceP{In: engine.SortP{In: scanL}},
		engine.AggP{GroupBy: []string{"k"}, Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}, In: scanL},
		engine.AggP{Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}, In: scanL}, // global agg: sequential sweep
		engine.DiffP{L: scanL, R: scanL},
	}
}

// explainOpLabel maps an ExplainNode.Op to the label the executors give
// the matching stats node.
func explainOpLabel(op string) string {
	if op == "UnionAll" {
		return "Union"
	}
	return op
}

// opStatsChildren filters a stats node's children down to operator
// nodes, dropping the fragment and exchange nodes the executor
// interleaves — the remainder is isomorphic to the explain tree.
func opStatsChildren(st *engine.OpStats) []*engine.OpStats {
	var out []*engine.OpStats
	for _, c := range st.Children() {
		if c.Label == "fragment" || strings.HasPrefix(c.Label, "Exchange:") {
			continue
		}
		out = append(out, c)
	}
	return out
}

func hasFragmentChildren(st *engine.OpStats) bool {
	for _, c := range st.Children() {
		if c.Label == "fragment" {
			return true
		}
	}
	return false
}

// checkPlacementDrift walks the explain and stats trees in lockstep and
// asserts that each node's predicted placement matches the executed
// fragmentation.
func checkPlacementDrift(t *testing.T, n *engine.ExplainNode, st *engine.OpStats, workers int) {
	t.Helper()
	if got := explainOpLabel(n.Op); got != st.Label {
		t.Fatalf("explain/stats trees diverged: explain op %q vs stats label %q", n.Op, st.Label)
	}
	predictedParted := strings.Contains(n.Placement, "fragments ×") ||
		strings.Contains(n.Placement, "morsel scan ×")
	if got := hasFragmentChildren(st); got != predictedParted {
		t.Fatalf("%s: placement %q predicts parted=%v, but executed fragments=%v (workers=%d)",
			n.Op, n.Placement, predictedParted, got, workers)
	}
	ops := opStatsChildren(st)
	if len(ops) != len(n.Children) {
		t.Fatalf("%s: explain has %d children, stats tree has %d operator children", n.Op, len(n.Children), len(ops))
	}
	for i := range n.Children {
		checkPlacementDrift(t, n.Children[i], ops[i], workers)
	}
}

func TestAnnotatePlacementMatchesExecution(t *testing.T) {
	db := bigPipelineDB(800)
	for _, workers := range []int{1, 4} {
		for _, p := range placementPlans() {
			n := db.ExplainPlan(p)
			parallel.AnnotatePlacement(db, p, n, workers)
			col := engine.NewCollector()
			it, err := parallel.Exec(context.Background(), db, p,
				parallel.Options{Workers: workers, MorselSize: 16, Stats: col.Root.Child("result", "")})
			if err != nil {
				t.Fatalf("workers=%d plan %v: %v", workers, p, err)
			}
			engine.Materialize(it)
			it.Close()
			ops := opStatsChildren(col.RootOp())
			if len(ops) != 1 {
				t.Fatalf("workers=%d plan %v: expected one root operator node, got %d", workers, p, len(ops))
			}
			checkPlacementDrift(t, n, ops[0], workers)
			if n.Placement == "" {
				t.Fatalf("workers=%d plan %v: root placement not annotated", workers, p)
			}
		}
	}
}
