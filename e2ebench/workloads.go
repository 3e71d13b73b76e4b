package main

import (
	"fmt"
	"math/rand"

	"snapk"
	"snapk/internal/dataset"
	"snapk/internal/engine"
	"snapk/internal/tuple"
	"snapk/internal/workload"
)

// Workload scales. The emp-analytic and tpch-agg sizes keep a round of
// every template under a second on two CPUs, so a 25-second run collects
// a few hundred query samples; emp-oltp keeps per-query fixed costs
// (worker start-up, parse, plan, cursor) a large share of each read.
const (
	analyticEmployees = 2500
	tpchScale         = 1.5
	oltpEmployees     = 1000
	departments       = 9

	// oltpReadShare is the share of emp-oltp operations that are reads.
	oltpReadShare = 0.6
	// oltpOutstanding bounds how far emp-oltp's tables drift from their
	// loaded size: at most this many inserted salary periods and deleted
	// dept_emp periods are outstanding at any time.
	oltpOutstanding = 8
	// oltpWarmupReads is the number of reads in emp-oltp's warm-up round.
	oltpWarmupReads = 90
)

type opKind int

const (
	opQuery opKind = iota
	opInsert
	opUpdate
	opDelete
)

// op is one client operation: a snapshot query or a write through the
// public snapk API.
type op struct {
	kind opKind
	// tmpl names the query template or the write kind; metrics group by it.
	tmpl string
	// sql is the query as the client submits it.
	sql string
	// oracleSQL is an equivalent query for the snapshot oracle, which
	// joins by nested loops; empty means sql itself.
	oracleSQL string
	// spots are the time points at which the result is spot-checked
	// against the oracle; nil means the workload's fixed points.
	spots []int64

	table      string
	begin, end int64
	values     []any  // insert
	column     string // update
	value      any    // update
	where      string // update and delete
	// affected is the row count an update or delete must report.
	affected int
}

// opStream yields a workload's operations in order. The sequence depends
// only on the seed, never on timing, so a traced run can replay it.
type opStream interface {
	next() *op
}

// workloadDef describes one benchmark workload.
type workloadDef struct {
	name        string
	parallelism int
	tables      []string
	generate    func(seed int64) *engine.DB
	// readOnly workloads verify against references computed once in set-up.
	readOnly bool
	// snapshotOracle selects db.QueryAt (the internal/snapshot oracle)
	// for spot checks. Where its nested-loop joins are too slow for the
	// data, the spot check instead runs the query on a copy of the
	// tables sliced at t, on the materializing executor.
	snapshotOracle bool
	// ops returns the measured operation stream; data is the generated
	// input, which emp-oltp uses to pick the rows its writes target.
	ops func(seed int64, data *engine.DB) opStream
	// warmup returns the operations of one warm-up round; they must not
	// change the data.
	warmup func(seed int64) []*op
}

var empTables = []string{"employees", "departments", "titles", "salaries", "dept_emp", "dept_manager"}
var tpchTables = []string{"region", "nation", "customer", "supplier", "part", "partsupp", "orders", "lineitem"}

func workloads() []*workloadDef {
	return []*workloadDef{
		{
			name:        "emp-analytic",
			parallelism: 2,
			tables:      empTables,
			generate: func(seed int64) *engine.DB {
				return dataset.Employees(dataset.EmployeesConfig{NumEmployees: analyticEmployees, NumDepartments: departments, Seed: seed})
			},
			readOnly:       true,
			snapshotOracle: true,
			ops:            func(seed int64, _ *engine.DB) opStream { return newRoundRobin(workload.Employees(), seed) },
			warmup:         func(int64) []*op { return templateOps(workload.Employees()) },
		},
		{
			name:        "tpch-agg",
			parallelism: 1,
			tables:      tpchTables,
			generate: func(seed int64) *engine.DB {
				return dataset.TPCBiH(dataset.TPCBiHConfig{ScaleFactor: tpchScale, Seed: seed})
			},
			readOnly: true,
			ops:      func(seed int64, _ *engine.DB) opStream { return newRoundRobin(workload.TPCH(), seed) },
			warmup:   func(int64) []*op { return templateOps(workload.TPCH()) },
		},
		{
			name:        "emp-oltp",
			parallelism: 2,
			tables:      empTables,
			generate: func(seed int64) *engine.DB {
				return dataset.Employees(dataset.EmployeesConfig{NumEmployees: oltpEmployees, NumDepartments: departments, Seed: seed})
			},
			snapshotOracle: true,
			ops:            func(seed int64, data *engine.DB) opStream { return newOLTP(seed, data) },
			warmup: func(seed int64) []*op {
				s := newOLTP(seed^0x5eed, nil)
				out := make([]*op, oltpWarmupReads)
				for i := range out {
					out[i] = s.read()
				}
				return out
			},
		},
	}
}

func workloadByName(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func templateOps(qs []workload.Query) []*op {
	out := make([]*op, len(qs))
	for i, q := range qs {
		out[i] = &op{kind: opQuery, tmpl: q.ID, sql: q.SQL}
	}
	return out
}

// roundRobin issues a fixed template list in order, starting at a
// seeded offset.
type roundRobin struct {
	ops []*op
	i   int
}

func newRoundRobin(qs []workload.Query, seed int64) *roundRobin {
	ops := templateOps(qs)
	return &roundRobin{ops: ops, i: int(uint64(seed) % uint64(len(ops)))}
}

func (r *roundRobin) next() *op {
	o := r.ops[r.i%len(r.ops)]
	r.i++
	return o
}

// oltp generates emp-oltp's operations: per-entity reads interleaved with
// writes. Each write is undone by a later one of the opposite kind, so
// table sizes stay within oltpOutstanding rows of their loaded size:
// an inserted salary period is deleted again, a deleted dept_emp period
// is inserted again, and an update toggles one salary row between two
// values over exactly that row's period, which neither splits nor adds
// rows. The generator models the table contents it needs, so every
// update and delete knows how many rows it must affect.
type oltp struct {
	r *rand.Rand
	// salaries and deptEmp are the loaded rows writes may target.
	salaries []salaryRow
	deptEmp  []deptEmpRow
	// deleted holds indexes into deptEmp currently deleted; bonus holds
	// the inserted salary periods not yet deleted.
	deleted []int
	bonus   []salaryRow
	nBonus  int
}

type salaryRow struct {
	emp, value, begin, end int64
	raised                 bool
}

type deptEmpRow struct {
	emp, dept, begin, end int64
	deleted               bool
}

func newOLTP(seed int64, data *engine.DB) *oltp {
	s := &oltp{r: rand.New(rand.NewSource(seed))}
	if data == nil {
		return s
	}
	sal, _ := data.Table("salaries")
	for _, row := range sal.Rows {
		iv := sal.Interval(row)
		s.salaries = append(s.salaries, salaryRow{emp: row[0].AsInt(), value: row[1].AsInt(), begin: iv.Begin, end: iv.End})
	}
	de, _ := data.Table("dept_emp")
	for _, row := range de.Rows {
		iv := de.Interval(row)
		s.deptEmp = append(s.deptEmp, deptEmpRow{emp: row[0].AsInt(), dept: row[1].AsInt(), begin: iv.Begin, end: iv.End})
	}
	return s
}

func (s *oltp) next() *op {
	if s.r.Float64() < oltpReadShare {
		return s.read()
	}
	switch s.r.Intn(3) {
	case 0:
		if o := s.insert(); o != nil {
			return o
		}
	case 1:
		if o := s.delete(); o != nil {
			return o
		}
	}
	return s.update()
}

// read returns one of three per-entity query templates, each filtered on
// one emp_no or dept_no. The filters sit above the joins, as a user
// writes them; the oracle variant filters inside the FROM clause, which
// is the same query but keeps the oracle's nested-loop joins small.
func (s *oltp) read() *op {
	spots := []int64{int64(s.r.Intn(int(dataset.EmployeesDomain.Size())))}
	switch s.r.Intn(3) {
	case 0:
		e := s.r.Intn(oltpEmployees)
		return &op{kind: opQuery, tmpl: "emp-salary-dept", spots: spots,
			sql: fmt.Sprintf(`SEQ VT (SELECT s.emp_no AS emp_no, s.salary AS salary, d.dept_no AS dept_no
				FROM salaries s JOIN dept_emp d ON s.emp_no = d.emp_no WHERE s.emp_no = %d)`, e),
			oracleSQL: fmt.Sprintf(`SEQ VT (SELECT s.emp_no AS emp_no, s.salary AS salary, d.dept_no AS dept_no
				FROM (SELECT emp_no, salary FROM salaries WHERE emp_no = %d) AS s
				JOIN (SELECT emp_no, dept_no FROM dept_emp WHERE emp_no = %d) AS d ON s.emp_no = d.emp_no)`, e, e),
		}
	case 1:
		d := s.r.Intn(departments)
		return &op{kind: opQuery, tmpl: "dept-avg-salary", spots: spots,
			sql: fmt.Sprintf(`SEQ VT (SELECT avg(s.salary) AS avg_salary
				FROM salaries s JOIN dept_emp d ON s.emp_no = d.emp_no WHERE d.dept_no = %d)`, d),
			oracleSQL: fmt.Sprintf(`SEQ VT (SELECT avg(s.salary) AS avg_salary
				FROM salaries s JOIN (SELECT emp_no FROM dept_emp WHERE dept_no = %d) AS d ON s.emp_no = d.emp_no)`, d),
		}
	default:
		d := s.r.Intn(departments)
		return &op{kind: opQuery, tmpl: "dept-non-managers", spots: spots,
			sql: fmt.Sprintf(`SEQ VT (SELECT d.emp_no AS emp_no FROM dept_emp d WHERE d.dept_no = %d
				EXCEPT ALL SELECT m.emp_no AS emp_no FROM dept_manager m WHERE m.dept_no = %d)`, d, d),
		}
	}
}

// insert adds a salary period or restores a deleted dept_emp period; nil
// when both are at their bound.
func (s *oltp) insert() *op {
	canBonus := len(s.bonus) < oltpOutstanding
	if len(s.deleted) > 0 && (!canBonus || s.r.Intn(2) == 0) {
		i := s.r.Intn(len(s.deleted))
		idx := s.deleted[i]
		s.deleted = append(s.deleted[:i], s.deleted[i+1:]...)
		row := &s.deptEmp[idx]
		row.deleted = false
		return &op{kind: opInsert, tmpl: "insert", table: "dept_emp", begin: row.begin, end: row.end,
			values: []any{row.emp, row.dept}}
	}
	if !canBonus {
		return nil
	}
	// Loaded salaries are multiples of 1000 and raised ones end in 500,
	// so a value ending in 250 identifies the inserted row.
	s.nBonus++
	b := int64(s.r.Intn(int(dataset.EmployeesDomain.Size()) - 100))
	row := salaryRow{emp: int64(s.r.Intn(oltpEmployees)), value: 1000*int64(30+s.nBonus) + 250,
		begin: b, end: b + 1 + int64(s.r.Intn(100))}
	s.bonus = append(s.bonus, row)
	return &op{kind: opInsert, tmpl: "insert", table: "salaries", begin: row.begin, end: row.end,
		values: []any{row.emp, row.value}}
}

// delete removes an inserted salary period or one loaded dept_emp period
// over exactly its validity; nil when neither is possible.
func (s *oltp) delete() *op {
	canDept := len(s.deleted) < oltpOutstanding && len(s.deptEmp) > 0
	if len(s.bonus) > 0 && (!canDept || s.r.Intn(2) == 0) {
		i := s.r.Intn(len(s.bonus))
		row := s.bonus[i]
		s.bonus = append(s.bonus[:i], s.bonus[i+1:]...)
		return &op{kind: opDelete, tmpl: "delete", table: "salaries", begin: row.begin, end: row.end,
			where: fmt.Sprintf("emp_no = %d AND salary = %d", row.emp, row.value), affected: 1}
	}
	if !canDept {
		return nil
	}
	idx := s.r.Intn(len(s.deptEmp))
	for s.deptEmp[idx].deleted {
		idx = (idx + 1) % len(s.deptEmp)
	}
	row := &s.deptEmp[idx]
	row.deleted = true
	s.deleted = append(s.deleted, idx)
	return &op{kind: opDelete, tmpl: "delete", table: "dept_emp", begin: row.begin, end: row.end,
		where: fmt.Sprintf("emp_no = %d AND dept_no = %d", row.emp, row.dept), affected: 1}
}

// update raises one loaded salary row by 500 over exactly its period, or
// lowers it back.
func (s *oltp) update() *op {
	row := &s.salaries[s.r.Intn(len(s.salaries))]
	from, to := row.value, row.value+500
	if row.raised {
		from, to = to, from
	}
	row.raised = !row.raised
	return &op{kind: opUpdate, tmpl: "update", table: "salaries", begin: row.begin, end: row.end,
		column: "salary", value: to, where: fmt.Sprintf("emp_no = %d AND salary = %d", row.emp, from), affected: 1}
}

// toAny converts an engine value to the Go value snapk hands out.
func toAny(v tuple.Value) any {
	switch v.Kind() {
	case tuple.KindInt:
		return v.AsInt()
	case tuple.KindFloat:
		return v.AsFloat()
	case tuple.KindString:
		return v.AsString()
	case tuple.KindBool:
		return v.AsBool()
	default:
		return nil
	}
}

// load copies the generated tables into a fresh snapk database through
// Table.Insert, row by row, in stored order. It returns the number of
// rows inserted.
func load(w *workloadDef, data *engine.DB) (*snapk.DB, map[string]*snapk.Table, int, error) {
	dom := data.Domain()
	db := snapk.New(dom.Min, dom.Max).SetParallelism(w.parallelism)
	tables := make(map[string]*snapk.Table, len(w.tables))
	rows := 0
	for _, name := range w.tables {
		src, err := data.Table(name)
		if err != nil {
			return nil, nil, 0, err
		}
		t, err := db.CreateTable(name, src.DataSchema().Cols...)
		if err != nil {
			return nil, nil, 0, err
		}
		n := src.DataArity()
		vals := make([]any, n)
		for _, row := range src.Rows {
			for i := range vals {
				vals[i] = toAny(row[i])
			}
			iv := src.Interval(row)
			if err := t.Insert(iv.Begin, iv.End, vals...); err != nil {
				return nil, nil, 0, fmt.Errorf("load %s: %w", name, err)
			}
		}
		tables[name] = t
		rows += src.Len()
	}
	return db, tables, rows, nil
}
