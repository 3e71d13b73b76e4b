package rewrite_test

import (
	"testing"

	"snapk/internal/dataset"
	"snapk/internal/rewrite"
	"snapk/internal/sqlfe"
	"snapk/internal/workload"
)

// BenchmarkPlanQuery measures planning alone — phase 1's logical rewrite
// (algebra.Optimize) through the REWR reduction — on the three per-entity
// read templates of the e2ebench emp-oltp workload, whose cost per query
// is dominated by such fixed costs, and on TPC-H Q8, the deepest join
// tree of the TPC-H workload. Parsing happens once, outside the loop.
func BenchmarkPlanQuery(b *testing.B) {
	emp := dataset.Employees(dataset.EmployeesConfig{NumEmployees: 200, NumDepartments: 9, Seed: 1})
	tpch := dataset.TPCBiH(dataset.TPCBiHConfig{ScaleFactor: 0.05, Seed: 1})
	q8, _ := workload.ByID(workload.TPCH(), "Q8")
	cases := []struct {
		name, sql string
		tpch      bool
	}{
		{name: "emp-salary-dept", sql: `SEQ VT (SELECT s.emp_no AS emp_no, s.salary AS salary, d.dept_no AS dept_no
			FROM salaries s JOIN dept_emp d ON s.emp_no = d.emp_no WHERE s.emp_no = 42)`},
		{name: "dept-avg-salary", sql: `SEQ VT (SELECT avg(s.salary) AS avg_salary
			FROM salaries s JOIN dept_emp d ON s.emp_no = d.emp_no WHERE d.dept_no = 3)`},
		{name: "dept-non-managers", sql: `SEQ VT (SELECT d.emp_no AS emp_no FROM dept_emp d WHERE d.dept_no = 3
			EXCEPT ALL SELECT m.emp_no AS emp_no FROM dept_manager m WHERE m.dept_no = 3)`},
		{name: "tpch-Q8", sql: q8.SQL, tpch: true},
	}
	for _, c := range cases {
		db := emp
		if c.tpch {
			db = tpch
		}
		q, err := sqlfe.ParseAndTranslate(c.sql, db)
		if err != nil {
			b.Fatalf("%s: %v", c.name, err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := rewrite.PlanQuery(q, db, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
