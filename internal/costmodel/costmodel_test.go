package costmodel

import (
	"testing"
	"testing/quick"
)

func opts() []Option {
	return []Option{
		{Name: "rocksdb", ThroughputKOps: 3.0, MaxDatasetBytes: 270 << 30},    // fast, space-hungry
		{Name: "wiredtiger", ThroughputKOps: 1.0, MaxDatasetBytes: 350 << 30}, // slow, compact
	}
}

func TestDrivesNeeded(t *testing.T) {
	o := Option{Name: "x", ThroughputKOps: 2, MaxDatasetBytes: 100 << 30}
	cases := []struct {
		data   float64
		target float64
		want   int
	}{
		{50 << 30, 1, 1},   // fits, throughput fine
		{50 << 30, 4, 2},   // throughput-bound
		{250 << 30, 1, 3},  // capacity-bound
		{250 << 30, 10, 5}, // throughput-bound dominates
		{1, 0.1, 1},        // minimum one drive
	}
	for i, c := range cases {
		if got := o.DrivesNeeded(c.data, c.target); got != c.want {
			t.Fatalf("case %d: DrivesNeeded = %d, want %d", i, got, c.want)
		}
	}
}

func TestInvalidOption(t *testing.T) {
	bad := Option{Name: "bad"}
	if bad.DrivesNeeded(1<<30, 1) < 1000000 {
		t.Fatal("invalid option should need effectively infinite drives")
	}
}

func TestComputeRequiresTwoOptions(t *testing.T) {
	if _, err := Compute(opts()[:1], []float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error for single option")
	}
}

func TestHeatmapShape(t *testing.T) {
	// The paper's Fig 6c structure: the faster system wins at high
	// target throughput / small datasets; the space-efficient one wins
	// for large datasets at low throughput targets.
	datasets := []float64{1 << 40, 2 << 40, 3 << 40, 4 << 40, 5 << 40}
	targets := []float64{5, 10, 15, 20, 25}
	h, err := Compute(opts(), datasets, targets)
	if err != nil {
		t.Fatal(err)
	}
	if w := h.Cells[4][0].Winner; w != "rocksdb" { // 25 KOps, 1 TB
		t.Fatalf("high-throughput small-data winner = %s, want rocksdb", w)
	}
	if w := h.Cells[0][4].Winner; w != "wiredtiger" { // 5 KOps, 5 TB
		t.Fatalf("low-throughput big-data winner = %s, want wiredtiger", w)
	}
}

func TestHeatmapMonotoneDrives(t *testing.T) {
	// Property: more data or a higher target never needs fewer drives.
	f := func(tput1, tput2 uint8, cap1, cap2 uint8) bool {
		o := []Option{
			{Name: "a", ThroughputKOps: float64(tput1%20) + 1, MaxDatasetBytes: float64(cap1%200+1) * (1 << 30)},
			{Name: "b", ThroughputKOps: float64(tput2%20) + 1, MaxDatasetBytes: float64(cap2%200+1) * (1 << 30)},
		}
		datasets := []float64{1 << 40, 2 << 40, 4 << 40}
		targets := []float64{2, 8, 16}
		h, err := Compute(o, datasets, targets)
		if err != nil {
			return false
		}
		for ti := range targets {
			for di := range datasets {
				for oi := range o {
					n := h.Cells[ti][di].Drives[oi]
					if di > 0 && n < h.Cells[ti][di-1].Drives[oi] {
						return false
					}
					if ti > 0 && n < h.Cells[ti-1][di].Drives[oi] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTie(t *testing.T) {
	same := []Option{
		{Name: "a", ThroughputKOps: 1, MaxDatasetBytes: 1 << 40},
		{Name: "b", ThroughputKOps: 1, MaxDatasetBytes: 1 << 40},
	}
	h, err := Compute(same, []float64{1 << 40}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if h.Cells[0][0].Winner != "tie" {
		t.Fatalf("equal options should tie, got %s", h.Cells[0][0].Winner)
	}
}
