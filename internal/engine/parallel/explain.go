package parallel

import (
	"fmt"

	"snapk/internal/engine"
)

// AnnotatePlacement fills the Placement fields of an EXPLAIN tree with
// the fragment and exchange decisions Exec's build() would make for p at
// the given worker count: morsel-partitioned scans, replicated fragment
// pipelines, the hash-partition exchange feeding each parallel sweep,
// and the sequential materialization boundaries. It is a static mirror
// of build()'s branching over the isomorphic tree that
// engine.ExplainPlan produces — when build() changes a placement
// decision, change the matching case here (the explain shape tests
// compare the two). workers follows the same convention as
// Options.Workers (values below 1 mean GOMAXPROCS; callers should
// resolve that first for stable output).
func AnnotatePlacement(db *engine.DB, p engine.Plan, n *engine.ExplainNode, workers int) {
	annotatePlacement(db, p, n, workers)
}

// annotatePlacement mirrors build(): it returns whether the stream is
// partitioned into fragments, the physical property build() tracks in
// pstream.
func annotatePlacement(db *engine.DB, p engine.Plan, n *engine.ExplainNode, workers int) (parted bool) {
	child := func(i int) *engine.ExplainNode {
		if i < len(n.Children) {
			return n.Children[i]
		}
		return &engine.ExplainNode{} // defensive: tree not isomorphic
	}
	switch t := p.(type) {
	case engine.ScanP:
		if workers <= 1 {
			n.Placement = "sequential scan"
			return false
		}
		n.Placement = fmt.Sprintf("morsel scan ×%d", workers)
		return true
	case engine.FilterP:
		parted = annotatePlacement(db, t.In, child(0), workers)
		n.Placement = fragmentsOrSequential(parted, workers)
		return parted
	case engine.ProjectP:
		parted = annotatePlacement(db, t.In, child(0), workers)
		n.Placement = fragmentsOrSequential(parted, workers)
		return parted
	case engine.JoinP:
		annotatePlacement(db, t.L, child(0), workers)
		annotatePlacement(db, t.R, child(1), workers)
		if !joinHasEquiKey(db, t) {
			n.Placement = "sequential overlap sweep over merged inputs"
			return false
		}
		if workers <= 1 {
			n.Placement = "sequential probe, build drained via merge"
			return false
		}
		n.Placement = fmt.Sprintf("shared build, probe fragments ×%d", workers)
		return true
	case engine.UnionP:
		lp := annotatePlacement(db, t.L, child(0), workers)
		rp := annotatePlacement(db, t.R, child(1), workers)
		if !lp && !rp {
			n.Placement = "sequential"
			return false
		}
		n.Placement = fmt.Sprintf("paired fragments ×%d", workers)
		return true
	case engine.DiffP:
		annotatePlacement(db, t.L, child(0), workers)
		annotatePlacement(db, t.R, child(1), workers)
		if workers > 1 {
			n.Placement = fmt.Sprintf("fragments ×%d via hash-partition ×2", workers)
			return true
		}
		n.Placement = "sequential sweep, inputs materialized"
		return false
	case engine.AggP:
		annotatePlacement(db, t.In, child(0), workers)
		if workers > 1 && len(t.GroupBy) > 0 {
			n.Placement = fmt.Sprintf("fragments ×%d via hash-partition", workers)
			return true
		}
		n.Placement = "sequential sweep, input materialized"
		return false
	case engine.CoalesceP:
		annotatePlacement(db, t.In, child(0), workers)
		if workers > 1 {
			n.Placement = fmt.Sprintf("fragments ×%d via hash-partition", workers)
			return true
		}
		n.Placement = "sequential sweep, input materialized"
		return false
	case engine.SortP:
		annotatePlacement(db, t.In, child(0), workers)
		n.Placement = "sequential materialization boundary"
		return false
	case engine.WindowP:
		// Window wraps its input fragments in place (mapStream), so it
		// inherits the child's partitioning. On the pruned path the child
		// is still a scan — its morsel/sequential annotation stays
		// accurate, the prune only shrinks the row range the morsel
		// counters divide.
		parted = annotatePlacement(db, t.In, child(0), workers)
		n.Placement = fragmentsOrSequential(parted, workers)
		return parted
	default:
		return false
	}
}
func fragmentsOrSequential(parted bool, workers int) string {
	if parted {
		return fmt.Sprintf("fragments ×%d", workers)
	}
	return "sequential"
}

// joinHasEquiKey reports whether buildJoin would pick the partitioned
// hash-join path (an equality conjunct exists) rather than the
// sequential overlap-sweep fallback. Schema errors report false, like
// explain's join detail: placement annotation never fails on a plan the
// executor would reject with a better error.
func joinHasEquiKey(db *engine.DB, t engine.JoinP) bool {
	lData, lErr := db.PlanDataSchema(t.L)
	rData, rErr := db.PlanDataSchema(t.R)
	if lErr != nil || rErr != nil {
		return false
	}
	prep, err := engine.PrepareJoin(lData, rData, t.Pred)
	return err == nil && prep.HasEquiKey()
}
