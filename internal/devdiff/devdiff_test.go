package devdiff

import (
	"testing"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/engine"
	_ "ptsbench/internal/engine/all"
)

// pinnedReports is every engine's whole Report at 600 ops and seed 9.
// The op log, the stacks and both devices all feed it, so a change to
// any of them that should not alter behaviour must leave it unmodified.
var pinnedReports = map[string]Report{
	"lsm": {Engine: "lsm", Ops: 600, Counters: blockdev.Counters{
		BytesWritten: 2174976, BytesRead: 110592, WriteOps: 522, ReadOps: 27},
		PagesWritten: 17, PagesCompared: 8192, ScanEntries: 64},
	"btree": {Engine: "btree", Ops: 600, Counters: blockdev.Counters{
		BytesWritten: 2195456, WriteOps: 530},
		PagesWritten: 22, PagesCompared: 8192, ScanEntries: 64},
	"betree": {Engine: "betree", Ops: 600, Counters: blockdev.Counters{
		BytesWritten: 2170880, WriteOps: 524},
		PagesWritten: 16, PagesCompared: 8192, ScanEntries: 64},
}

// TestDifferentialAllEngines is the capstone of the file backend: for
// every registered engine, the same seeded op log over the simulated
// device and over a real backing file must produce identical per-op
// results, identical engine stats, identical host I/O counters and
// write histograms, a byte-identical device image, and identical
// recovered scans after the file side's real close-and-reopen. The
// report that results must equal the engine's pinned one.
func TestDifferentialAllEngines(t *testing.T) {
	for _, name := range engine.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Spec{Engine: name, Ops: 600, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			want, ok := pinnedReports[name]
			if !ok {
				t.Fatalf("no pinned report for engine %q: %+v", name, *rep)
			}
			if *rep != want {
				t.Fatalf("report moved:\ngot  %+v\nwant %+v", *rep, want)
			}
		})
	}
}

// TestSpecValidate covers defaults and fail-fast rejection.
func TestSpecValidate(t *testing.T) {
	s, err := (Spec{Engine: "lsm"}).validate()
	if err != nil {
		t.Fatal(err)
	}
	if s.Ops != 600 || s.Keys != 75 {
		t.Fatalf("defaults wrong: %+v", s)
	}
	for _, bad := range []Spec{
		{},                        // no engine
		{Engine: "nope"},          // unknown engine
		{Engine: "lsm", Ops: -1},  // bad ops
		{Engine: "lsm", Keys: -1}, // bad keys
	} {
		if _, err := bad.validate(); err == nil {
			t.Errorf("bad spec validated: %+v", bad)
		}
	}
}
