package harness

import (
	"snapk/internal/algebra"
	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/krel"
)

// coalesceDB builds the n-row coalescing workload: one table "sal".
func coalesceDB(n int) *engine.DB {
	return dataset.CoalesceInput(n, 3)
}

// aggPlan is the pre-aggregated split/aggregate of the coalescing
// workload over in.
func aggPlan(in engine.Plan) engine.Plan {
	return engine.AggP{
		GroupBy: []string{"emp_no"},
		Aggs:    []algebra.AggSpec{{Fn: krel.Sum, Arg: "salary", As: "total"}, {Fn: krel.CountStar, As: "cnt"}},
		PreAgg:  true,
		In:      in,
	}
}

// diffDB builds the difference workload: tables "l" and "r". The
// left side is the n-row coalescing workload; the right side is
// generated with the SAME seed at half the size, so it reproduces the
// first half of the left rows exactly: value-equivalent groups exist on
// both sides everywhere and the ℕ monus has real truncation work, while
// the surviving left half keeps the result non-empty.
func diffDB(n int) *engine.DB {
	ldb := dataset.CoalesceInput(n, 3)
	rdb := dataset.CoalesceInput(max(n/2, 1), 3)
	lt, err := ldb.Table("sal")
	if err != nil {
		panic(err) // generated dataset always has the sal table
	}
	rt, err := rdb.Table("sal")
	if err != nil {
		panic(err)
	}
	db := engine.NewDB(ldb.Domain())
	db.AddTable("l", lt)
	db.AddTable("r", rt)
	return db
}
