package flash

import (
	"testing"

	"ptsbench/internal/sim"
)

// BenchmarkFTLRandomWrite times single-page host writes at random
// offsets on a full drive, so garbage collection participates.
func BenchmarkFTLRandomWrite(b *testing.B) {
	dev, err := NewDevice(Config{
		LogicalBytes:  256 << 20,
		PageSize:      4096,
		PagesPerBlock: 256,
		Profile:       ProfileSSD1().Scaled(1024),
	})
	if err != nil {
		b.Fatal(err)
	}
	// Pre-fill so GC participates.
	pages := dev.LogicalPages()
	var now sim.Duration
	for p := int64(0); p < pages; p += 256 {
		now = dev.SubmitWrite(now, p, 256)
	}
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = dev.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
	}
}

// BenchmarkPrecondition times PreconditionRange at the paper's setting
// (a sequential fill, then 2x the drive in random single-page writes) on
// the default device of a scale-32 cell scaled down four times further:
// 4 KiB pages, 512-page erase blocks, 3.125 GiB, so the mapping tables
// (about 7 MiB) do not fit a core's cache. ns/page is per host page the
// preconditioning writes, fill included.
func BenchmarkPrecondition(b *testing.B) {
	cfg := Config{
		LogicalBytes:  (400 << 30) / 128,
		PageSize:      4096,
		PagesPerBlock: (64 << 10) / 128,
		Profile:       ProfileSSD1().Scaled(128),
	}
	const multiple = 2
	var pages int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev, err := NewDevice(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pages = dev.LogicalPages()
		b.StartTimer()
		dev.PreconditionRange(sim.NewRNG(uint64(i)), 0, pages, multiple)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*pages*(1+multiple)), "ns/page")
}
