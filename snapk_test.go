package snapk_test

import (
	"regexp"
	"strings"
	"testing"

	snapk "snapk"
	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/rewrite"
	"snapk/internal/sqlfe"
	"snapk/internal/tuple"
	"snapk/internal/workload"
)

func factoryDB(t *testing.T) *snapk.DB {
	t.Helper()
	db := snapk.New(0, 24)
	works, err := db.CreateTable("works", "name", "skill")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		b, e  int64
		name  string
		skill string
	}{
		{3, 10, "Ann", "SP"}, {8, 16, "Joe", "NS"}, {8, 16, "Sam", "SP"}, {18, 20, "Ann", "SP"},
	} {
		if err := works.Insert(r.b, r.e, r.name, r.skill); err != nil {
			t.Fatal(err)
		}
	}
	assign, err := db.CreateTable("assign", "mach", "skill")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		b, e  int64
		mach  string
		skill string
	}{
		{3, 12, "M1", "SP"}, {6, 14, "M2", "SP"}, {3, 16, "M3", "NS"},
	} {
		if err := assign.Insert(r.b, r.e, r.mach, r.skill); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestQuickstartQonduty(t *testing.T) {
	db := factoryDB(t)
	res, err := db.Query(`SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("Qonduty has %d rows, want 7 (Figure 1b):\n%s", res.Len(), res)
	}
	// Snapshot at 08:00 has exactly one row with cnt = 2.
	snap := res.At(8)
	if len(snap) != 1 || snap[0][0].(int64) != 2 {
		t.Fatalf("At(8) = %v", snap)
	}
	// Gaps report 0.
	if snap := res.At(0); len(snap) != 1 || snap[0][0].(int64) != 0 {
		t.Fatalf("At(0) = %v", snap)
	}
	s := res.String()
	if !strings.Contains(s, "cnt") || !strings.Contains(s, "[0, 3)") {
		t.Errorf("String missing pieces:\n%s", s)
	}
}

func TestBagDifferenceViaFacade(t *testing.T) {
	db := factoryDB(t)
	res, err := db.Query(`SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("Qskillreq has %d rows, want 3 (Figure 1c):\n%s", res.Len(), res)
	}
}

func TestApproachesDisagreeOnBugs(t *testing.T) {
	db := factoryDB(t)
	q := `SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')`
	correct, err := db.QueryWith(q, snapk.Seq)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := db.QueryWith(q, snapk.SeqNaive)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Len() != correct.Len() {
		t.Fatal("SeqNaive must agree with Seq")
	}
	for _, ap := range []snapk.Approach{snapk.NativeIntervalPreservation, snapk.NativeAlignment} {
		buggy, err := db.QueryWith(q, ap)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range buggy.Rows {
			if row.Values[0].(int64) == 0 {
				t.Fatalf("%v should exhibit the AG bug (no count-0 rows)", ap)
			}
		}
	}
}

func TestInsertValidation(t *testing.T) {
	db := snapk.New(0, 10)
	tb, err := db.CreateTable("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		b, e int64
		vals []any
	}{
		{5, 5, []any{1, 2}},          // empty period
		{8, 12, []any{1, 2}},         // outside domain
		{0, 5, []any{1}},             // arity
		{0, 5, []any{1, struct{}{}}}, // bad type
	}
	for i, c := range cases {
		if err := tb.Insert(c.b, c.e, c.vals...); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
	if err := tb.Insert(0, 5, nil, 2.5); err != nil {
		t.Errorf("null/float insert failed: %v", err)
	}
	if tb.Rows() != 1 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	if tb.Name() != "t" || len(tb.Columns()) != 2 {
		t.Error("metadata accessors broken")
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := snapk.New(0, 10)
	if _, err := db.CreateTable("t"); err == nil {
		t.Error("no columns should error")
	}
	if _, err := db.CreateTable("t", "_begin"); err == nil {
		t.Error("reserved column should error")
	}
	if _, err := db.CreateTable("t", "a", "a"); err == nil {
		t.Error("duplicate column should error")
	}
	if _, err := db.CreateTable("t", "a"); err != nil {
		t.Error(err)
	}
	if _, err := db.CreateTable("t", "a"); err == nil {
		t.Error("duplicate table should error")
	}
}

func TestQueryErrors(t *testing.T) {
	db := snapk.New(0, 10)
	if _, err := db.Query(`SELECT * FROM nope`); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := db.Query(`not sql`); err == nil {
		t.Error("parse error expected")
	}
	if _, err := db.QueryWith(`SELECT 1 AS one FROM nope`, snapk.Approach(99)); err == nil {
		t.Error("unknown approach should error")
	}
}

func TestDomainAccessorsAndExplain(t *testing.T) {
	db := factoryDB(t)
	if db.MinTime() != 0 || db.MaxTime() != 24 {
		t.Error("domain accessors broken")
	}
	plan, err := db.Explain(`SEQ VT (SELECT count(*) AS cnt FROM works)`)
	if err != nil {
		t.Fatal(err)
	}
	// The aggregation emits the unique encoding itself: no coalesce.
	if strings.Contains(plan, "Coalesce") || !strings.Contains(plan, "TAgg") {
		t.Errorf("Explain = %q", plan)
	}
	plan, err = db.Explain(`SEQ VT (SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Coalesce") || !strings.Contains(plan, "TJoin") {
		t.Errorf("Explain = %q", plan)
	}
	if _, err := db.Explain(`bad`); err == nil {
		t.Error("Explain must propagate parse errors")
	}
}

// TestExplainPushesSelectionsBelowJoins pins selection pushdown into
// every plan of the public API: a filter written above the joins must
// appear directly over its base-table scan, which is a join input, so
// the filter runs beneath the joins.
func TestExplainPushesSelectionsBelowJoins(t *testing.T) {
	q5, _ := workload.ByID(workload.TPCH(), "Q5")
	cases := []struct {
		name, sql, filter string
		tables            map[string][]string
	}{
		{
			name:   "tpch-Q5",
			sql:    q5.SQL,
			filter: "Filter[(r_name = 'ASIA')](region)",
			tables: map[string][]string{
				"customer": {"c_custkey", "c_nationkey"},
				"orders":   {"o_orderkey", "o_custkey"},
				"lineitem": {"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"},
				"supplier": {"s_suppkey", "s_nationkey"},
				"nation":   {"n_nationkey", "n_name", "n_regionkey"},
				"region":   {"r_regionkey", "r_name"},
			},
		},
		{
			name: "emp-salary-dept",
			sql: `SEQ VT (SELECT s.emp_no AS emp_no, s.salary AS salary, d.dept_no AS dept_no
				FROM salaries s JOIN dept_emp d ON s.emp_no = d.emp_no WHERE s.emp_no = 42)`,
			filter: "Filter[(emp_no = 42)](salaries)",
			tables: map[string][]string{
				"salaries": {"emp_no", "salary"},
				"dept_emp": {"emp_no", "dept_no"},
			},
		},
	}
	for _, c := range cases {
		db := snapk.New(0, 100)
		for name, cols := range c.tables {
			if _, err := db.CreateTable(name, cols...); err != nil {
				t.Fatal(err)
			}
		}
		plan, err := db.Explain(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(plan, c.filter) {
			t.Fatalf("%s: plan lacks %s below the joins:\n%s", c.name, c.filter, plan)
		}
	}
}

// TestExplainJoinRules pins the plan shapes of phase 1's join rules in
// the public API's plans: column pruning, absorption of cross-side
// conjuncts into join predicates and OR-derived side predicates — and
// the two limits of pruning, full-width difference inputs and unchanged
// "r."-prefixed names.
func TestExplainJoinRules(t *testing.T) {
	db := snapk.New(0, 100)
	for name, cols := range map[string][]string{
		"customer": {"c_custkey", "c_nationkey"},
		"orders":   {"o_orderkey", "o_custkey", "o_orderpriority"},
		"lineitem": {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice",
			"l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct"},
		"supplier":  {"s_suppkey", "s_nationkey"},
		"nation":    {"n_nationkey", "n_name", "n_regionkey"},
		"region":    {"r_regionkey", "r_name"},
		"employees": {"emp_no", "name"},
		"titles":    {"emp_no", "title"},
		"salaries":  {"emp_no", "salary"},
		"dept_emp":  {"emp_no", "dept_no"},
	} {
		if _, err := db.CreateTable(name, cols...); err != nil {
			t.Fatal(err)
		}
	}
	explain := func(sql string) string {
		t.Helper()
		plan, err := db.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	q5, _ := workload.ByID(workload.TPCH(), "Q5")
	q7, _ := workload.ByID(workload.TPCH(), "Q7")
	aggJoin, _ := workload.ByID(workload.Employees(), "agg-join")

	// Q7 reads four lineitem columns, and its OR over both nations puts
	// a derived filter on each nation scan.
	plan := explain(q7.SQL)
	if want := "Project[l_orderkey→l.l_orderkey,l_suppkey→l.l_suppkey,l_extendedprice→l.l_extendedprice,l_discount→l.l_discount](lineitem)"; !strings.Contains(plan, want) {
		t.Fatalf("Q7: lineitem not narrowed to %s:\n%s", want, plan)
	}
	filtered := regexp.MustCompile(`Filter\[[^\]]*n_name = 'FRANCE'[^\]]*\]\(nation\)`)
	if n := len(filtered.FindAllString(plan, -1)); n != 2 || strings.Count(plan, "(nation)") != 2 {
		t.Fatalf("Q7: %d of %d nation scans under a derived filter, want both of 2:\n%s", n, strings.Count(plan, "(nation)"), plan)
	}

	// Q5's cross-side c_nationkey = s_nationkey joins the supplier join's
	// hash key instead of filtering its output.
	plan = explain(q5.SQL)
	if want := "TJoin[((l.l_suppkey = s.s_suppkey) AND (c.c_nationkey = s.s_nationkey))]"; !strings.Contains(plan, want) || strings.Contains(plan, "Filter[(c.c_nationkey") {
		t.Fatalf("Q5: supplier join is not %s with no filter above it:\n%s", want, plan)
	}

	// agg-join's s.salary = mx.max_salary likewise.
	plan = explain(aggJoin.SQL)
	if !regexp.MustCompile(`TJoin\[[^\]]*\(s\.salary = mx\.max_salary\)`).MatchString(plan) || strings.Contains(plan, "Filter[(s.salary") {
		t.Fatalf("agg-join: s.salary = mx.max_salary is not a join predicate:\n%s", plan)
	}

	// Only x.emp_no is read above the difference, but its inputs keep
	// both columns: EXCEPT ALL matches rows on every column.
	plan = explain(`SEQ VT (SELECT x.emp_no AS emp_no FROM (
		SELECT e.emp_no AS emp_no, e.name AS name FROM employees e
		EXCEPT ALL SELECT t.emp_no AS emp_no, t.title AS name FROM titles t) AS x)`)
	for _, want := range []string{
		"Project[emp_no→x.emp_no](",
		"Project[e.emp_no→emp_no,e.name→name](Project[emp_no→e.emp_no,name→e.name](employees))",
		"Project[t.emp_no→emp_no,t.title→name](Project[emp_no→t.emp_no,title→t.title](titles))",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("difference: plan lacks %s:\n%s", want, plan)
		}
	}

	// Both sides are aliased x, so the right side's x.emp_no is r.x.emp_no
	// in the join output. The left's x.emp_no is read by nobody, but it
	// stays so that r.x.emp_no keeps its name; the unread x.s2 goes.
	plan = explain(`SEQ VT (SELECT x.dept_no AS d
		FROM (SELECT emp_no, salary, salary + 1 AS s2 FROM salaries) AS x
		JOIN (SELECT emp_no, dept_no FROM dept_emp) AS x ON x.salary = r.x.emp_no)`)
	for _, want := range []string{
		"TJoin[(x.salary = r.x.emp_no)](Project[emp_no→x.emp_no,salary→x.salary](",
		"Project[emp_no→emp_no,salary→salary](salaries)",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("colliding join: plan lacks %s:\n%s", want, plan)
		}
	}
}

func TestApproachString(t *testing.T) {
	names := map[snapk.Approach]string{
		snapk.Seq: "Seq", snapk.SeqNaive: "Seq-naive",
		snapk.NativeIntervalPreservation: "Nat-ip", snapk.NativeAlignment: "Nat-align",
	}
	for ap, want := range names {
		if got := ap.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(ap), got, want)
		}
	}
}

// Result.String must sort numeric columns numerically: 9 before 10, not
// the lexicographic "10" < "9" the old formatValue-based comparison
// produced.
func TestResultSortsNumericallyNotLexicographically(t *testing.T) {
	db := snapk.New(0, 100)
	tbl, err := db.CreateTable("t", "n", "f")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{10, 9, 100, 2} {
		if err := tbl.Insert(0, 10, n, float64(n)/2); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(`SELECT n, f FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	order := []string{"2 ", "9 ", "10 ", "100 "}
	last := -1
	for _, frag := range order {
		i := strings.Index(out, "\n"+frag)
		if i < 0 {
			t.Fatalf("row starting with %q missing:\n%s", frag, out)
		}
		if i < last {
			t.Fatalf("row %q out of numeric order:\n%s", frag, out)
		}
		last = i
	}
	// Mixed int/float and NULL ordering must not panic and puts NULL first.
	mixed, err := db.CreateTable("m", "v")
	if err != nil {
		t.Fatal(err)
	}
	must := func(e error) {
		if e != nil {
			t.Fatal(e)
		}
	}
	must(mixed.Insert(0, 5, 2))
	must(mixed.Insert(0, 5, 1.5))
	must(mixed.Insert(0, 5, nil))
	res, err = db.Query(`SELECT v FROM m`)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(res.String()), "\n")
	if len(lines) != 5 { // header + separator + 3 rows
		t.Fatalf("unexpected output:\n%s", res)
	}
	for i, want := range []string{"NULL", "1.5", "2"} {
		if !strings.HasPrefix(lines[2+i], want) {
			t.Fatalf("row %d = %q, want prefix %q\n%s", i, lines[2+i], want, res)
		}
	}
}

// TestExplainCoalesceElision pins which public-API plans keep REWR's
// final coalesce. An aggregation or difference root emits the unique
// encoding itself, also under a projection that keeps every column, so
// diff-2, agg-1, agg-3 and Q1 run without one; join roots keep exactly
// one, and so does an aggregation whose projection drops the grouping
// column, since rows of different departments can then merge. The
// naive plans (a coalesce after every operator) are unchanged.
func TestExplainCoalesceElision(t *testing.T) {
	schemas := map[string][]string{
		"lineitem": {"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice",
			"l_discount", "l_tax", "l_returnflag", "l_linestatus", "l_shipmode", "l_shipinstruct"},
		"employees":    {"emp_no", "name"},
		"salaries":     {"emp_no", "salary"},
		"dept_emp":     {"emp_no", "dept_no"},
		"dept_manager": {"emp_no", "dept_no"},
	}
	db := snapk.New(0, 100)
	cat := algebra.MapCatalog{}
	for name, cols := range schemas {
		if _, err := db.CreateTable(name, cols...); err != nil {
			t.Fatal(err)
		}
		cat[name] = tuple.NewSchema(cols...)
	}
	sqls := map[string]string{
		"dept-avg": `SEQ VT (SELECT avg(s.salary) AS avg_salary
			FROM salaries s JOIN dept_emp d ON s.emp_no = d.emp_no GROUP BY d.dept_no)`,
	}
	for _, q := range append(workload.Employees(), workload.TPCH()...) {
		sqls[q.ID] = q.SQL
	}
	for _, c := range []struct {
		id              string
		coalesce, naive int
	}{
		{"diff-2", 0, 7}, {"agg-1", 0, 6}, {"agg-3", 0, 9}, {"Q1", 0, 3},
		{"join-1", 1, 4}, {"agg-join", 1, 14}, {"dept-avg", 1, 6},
	} {
		plan, err := db.Explain(sqls[c.id])
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if n := strings.Count(plan, "Coalesce("); n != c.coalesce {
			t.Errorf("%s: plan has %d coalesce operators, want %d:\n%s", c.id, n, c.coalesce, plan)
		}
		q, err := sqlfe.ParseAndTranslate(sqls[c.id], cat)
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		naive, err := rewrite.Rewrite(q, cat, rewrite.Options{Mode: rewrite.ModeNaive})
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if n := engine.CountCoalesce(naive); n != c.naive {
			t.Errorf("%s: naive plan has %d coalesce operators, want %d:\n%s", c.id, n, c.naive, naive)
		}
	}
}
