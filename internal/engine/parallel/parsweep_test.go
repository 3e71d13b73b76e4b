package parallel_test

import (
	"context"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// scanDB builds a stored table with interleaved groups and overlapping
// intervals, large enough that every worker claims many morsels.
func scanDB(rows int) *engine.DB {
	dom := interval.NewDomain(0, 1<<20)
	db := engine.NewDB(dom)
	tbl := db.CreateTable("t", tuple.NewSchema("g", "v"))
	for i := 0; i < rows; i++ {
		begin := int64(i)
		tbl.Append(tuple.Tuple{tuple.Int(int64(i % 7)), tuple.Int(int64(i))}, interval.New(begin, begin+50), 1)
	}
	return db
}

// The parallel sweeps behind the hash-partition exchange, streamed to
// the cursor, must produce the exact multiset of the sequential
// materializing executor for coalesce, grouped/global pre-aggregated
// aggregation and the difference, at several worker counts. The tiny
// morsel size forces real partitioning.
func TestParallelStreamingSweepEquivalence(t *testing.T) {
	db := scanDB(3000)
	aggs := []algebra.AggSpec{{Fn: krel.Sum, Arg: "v", As: "total"}, {Fn: krel.CountStar, As: "cnt"}}
	scan := engine.ScanP{Name: "t"}
	plans := []struct {
		name string
		plan engine.Plan
	}{
		{"coalesce", engine.CoalesceP{In: scan}},
		{"agg-grouped", engine.AggP{GroupBy: []string{"g"}, Aggs: aggs, PreAgg: true, In: scan}},
		{"agg-global", engine.AggP{Aggs: aggs, PreAgg: true, In: scan}},
		{"diff", engine.DiffP{L: scan, R: engine.FilterP{Pred: algebra.Lt(algebra.Col("v"), algebra.IntC(2000)), In: scan}}},
	}
	for _, p := range plans {
		mat, err := db.Exec(p.plan)
		if err != nil {
			t.Fatalf("%s: oracle: %v", p.name, err)
		}
		want := sortedKeys(mat)
		if len(want) == 0 {
			t.Fatalf("%s: empty oracle result; test is vacuous", p.name)
		}
		for _, workers := range []int{2, 3, 8} {
			it, err := parallel.Exec(context.Background(), db, p.plan,
				parallel.Options{Workers: workers, MorselSize: 8})
			if err != nil {
				t.Fatalf("%s workers %d: %v", p.name, workers, err)
			}
			got := sortedKeys(engine.Materialize(it))
			it.Close()
			if !sameMultiset(got, want) {
				t.Fatalf("%s workers %d: parallel sweep diverges: got %d rows, want %d",
					p.name, workers, len(got), len(want))
			}
		}
	}
}

// The parallel-executor grid over random databases and queries: the
// REWR plans at every parallelism × sortedness combination must agree
// with the materializing executor. This is the qgen equivalence suite's
// coverage of the exchanges (the rewrite-level commuting diagram covers
// the logical model; this one stresses the exchanges with a tiny morsel
// size).
func TestParStreamQgenGrid(t *testing.T) {
	for seed := int64(200); seed < 260; seed++ {
		g := qgen.New(seed)
		spec := g.GenDB()
		q := g.GenQuery()
		for _, sorted := range []bool{false, true} {
			s := spec
			if sorted {
				s = spec.SortedByBegin()
			}
			db := s.ToEngineDB()
			p, err := rewrite.Rewrite(q, db, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: 3})
			if err != nil {
				t.Fatalf("seed %d: rewrite: %v", seed, err)
			}
			mat, err := db.Exec(p)
			if err != nil {
				t.Fatalf("seed %d: Exec(%s): %v", seed, p, err)
			}
			want := sortedKeys(mat)
			for _, workers := range []int{2, 4} {
				it, err := parallel.Exec(context.Background(), db, p, parallel.Options{Workers: workers, MorselSize: 4})
				if err != nil {
					t.Fatalf("seed %d workers %d: %v", seed, workers, err)
				}
				got := sortedKeys(engine.Materialize(it))
				it.Close()
				if !sameMultiset(got, want) {
					t.Fatalf("seed %d sorted %v workers %d: diverges from sequential\nplan: %s\ngot %d rows, want %d",
						seed, sorted, workers, p, len(got), len(want))
				}
			}
		}
	}
}
