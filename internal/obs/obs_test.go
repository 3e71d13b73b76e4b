package obs_test

import (
	"testing"

	"snapk/internal/obs"
)

func TestRegistryCountersAndSnapshot(t *testing.T) {
	r := &obs.Registry{}
	r.QueriesRun.Add(2)
	r.RowsEmitted.Add(5)
	r.Sweeps.Add(3)
	s := r.Snapshot()
	if s.QueriesRun != 2 || s.RowsEmitted != 5 || s.Sweeps != 3 {
		t.Fatalf("snapshot %+v", s)
	}
	want := "queries=2 rows_emitted=5 sweeps=3"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
