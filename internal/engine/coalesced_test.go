package engine

import (
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
)

// TestCoalescedRules pins engine.Coalesced node by node: which roots
// emit the unique encoding, and which operators above them keep it.
func TestCoalescedRules(t *testing.T) {
	scan := ScanP{Name: "t"}
	cnt := []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}
	agg := AggP{GroupBy: []string{"g"}, Aggs: cnt, PreAgg: true, In: scan}
	diff := DiffP{
		L: ProjectP{Exprs: []algebra.NamedExpr{{Name: "a", E: algebra.Col("x")}, {Name: "b", E: algebra.Col("y")}}, In: scan},
		R: scan,
	}
	col := func(name, as string) algebra.NamedExpr { return algebra.NamedExpr{Name: as, E: algebra.Col(name)} }
	for _, c := range []struct {
		name string
		p    Plan
		want bool
	}{
		{"pre-aggregated split", agg, true},
		{"naive split", AggP{GroupBy: []string{"g"}, Aggs: cnt, In: scan}, false},
		{"difference", diff, true},
		{"scan", scan, false},
		{"union", UnionP{L: agg, R: agg}, false},
		{"join", JoinP{L: agg, R: agg, Pred: algebra.BoolC(true)}, false},
		{"coalesce", CoalesceP{In: scan}, false},
		{"data-only filter", FilterP{Pred: algebra.Gt(algebra.Col("cnt"), algebra.IntC(1)), In: agg}, true},
		{"filter over _begin", FilterP{Pred: algebra.Lt(algebra.Col(BeginCol), algebra.IntC(1)), In: agg}, false},
		{"filter over a scan", FilterP{Pred: algebra.BoolC(true), In: scan}, false},
		{"window", WindowP{T: interval.New(2, 8), In: agg}, true},
		{"sort", SortP{In: diff}, true},
		{"renaming permutation", ProjectP{Exprs: []algebra.NamedExpr{col("cnt", "n"), col("g", "k")}, In: agg}, true},
		{"permutation plus a computed column", ProjectP{Exprs: []algebra.NamedExpr{
			col("g", "g"), col("cnt", "cnt"), {Name: "c2", E: algebra.Mul(algebra.Col("cnt"), algebra.IntC(2))},
		}, In: agg}, true},
		{"dropped column", ProjectP{Exprs: []algebra.NamedExpr{col("cnt", "cnt")}, In: agg}, false},
		{"computed columns only", ProjectP{Exprs: []algebra.NamedExpr{
			{Name: "g", E: algebra.Add(algebra.Col("g"), algebra.IntC(0))}, col("cnt", "cnt"),
		}, In: agg}, false},
		{"projection reading _end", ProjectP{Exprs: []algebra.NamedExpr{col("g", "g"), col("cnt", "cnt"), col(EndCol, "e")}, In: agg}, false},
		{"projection over a difference", ProjectP{Exprs: []algebra.NamedExpr{col("b", "b"), col("a", "a")}, In: diff}, true},
		{"projection over a difference of scans", ProjectP{Exprs: []algebra.NamedExpr{col("x", "x")}, In: DiffP{L: scan, R: scan}}, false},
		{"stacked operators", SortP{In: WindowP{T: interval.New(0, 4), In: FilterP{Pred: algebra.IsNullExpr{E: algebra.Col("n")},
			In: ProjectP{Exprs: []algebra.NamedExpr{col("cnt", "n"), col("g", "g")}, In: agg}}}}, true},
	} {
		if got := Coalesced(c.p); got != c.want {
			t.Errorf("%s: Coalesced = %v, want %v: %s", c.name, got, c.want, c.p)
		}
	}
}
