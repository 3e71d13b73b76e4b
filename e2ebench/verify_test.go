package main

import (
	"strings"
	"testing"

	"snapk/internal/dataset"
)

func TestCheckUniqueEncoding(t *testing.T) {
	a := []any{int64(1)}
	b := []any{"x"}
	cases := []struct {
		name string
		rows []resultRow
		want string // substring of the error; "" for none
	}{
		{"coalesced", []resultRow{{a, 0, 5}, {a, 5, 9}, {a, 5, 9}, {b, 0, 9}}, ""},
		{"gap keeps periods apart", []resultRow{{a, 0, 5}, {a, 6, 9}}, ""},
		{"overlap", []resultRow{{a, 0, 5}, {a, 4, 9}}, "overlap"},
		{"adjacent same multiplicity", []resultRow{{a, 0, 5}, {a, 5, 9}}, "share multiplicity"},
		{"adjacent duplicates", []resultRow{{a, 0, 5}, {a, 0, 5}, {a, 5, 9}, {a, 5, 9}}, "share multiplicity"},
		{"empty period", []resultRow{{a, 5, 5}}, "empty period"},
	}
	for _, c := range cases {
		err := checkUniqueEncoding(c.rows)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestFingerprintIgnoresRowOrder(t *testing.T) {
	h := newHasher()
	x := []resultRow{{[]any{int64(1), 2.5}, 0, 3}, {[]any{int64(2), nil}, 1, 4}}
	y := []resultRow{x[1], x[0]}
	if h.ofRows(x) != h.ofRows(y) {
		t.Fatal("fingerprint depends on row order")
	}
	z := []resultRow{x[0], {[]any{int64(2), nil}, 1, 5}}
	if h.ofRows(x) == h.ofRows(z) {
		t.Fatal("fingerprint ignores a period")
	}
}

// TestOLTPStaysInBand replays the emp-oltp generator on the public API
// and checks that every write affects the rows it expects and that
// table sizes stay within the outstanding-write bound.
func TestOLTPStaysInBand(t *testing.T) {
	w, err := workloadByName("emp-oltp")
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.Employees(dataset.EmployeesConfig{NumEmployees: 50, NumDepartments: departments, Seed: 3})
	db, tables, _, err := load(w, data)
	if err != nil {
		t.Fatal(err)
	}
	st := &state{data: data, db: db, tables: tables}
	before := st.rowCounts(w.tables)
	src := newOLTP(3, data)
	for i := 0; i < 2000; i++ {
		o := src.next()
		if o.kind == opQuery {
			continue
		}
		if err := st.write(o); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		for name, n := range st.rowCounts(w.tables) {
			if d := n - before[name]; d > oltpOutstanding || d < -oltpOutstanding {
				t.Fatalf("op %d: table %s has %d rows, loaded %d", i, name, n, before[name])
			}
		}
	}
}
