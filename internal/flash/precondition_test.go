package flash

import (
	"reflect"
	"testing"

	"ptsbench/internal/sim"
)

// preconditionConfig is a small drive whose random-overwrite phase keeps
// garbage collection busy: few streams and small blocks, so the free pool
// drains every few dozen pages.
func preconditionConfig(streams int) Config {
	return Config{
		LogicalBytes:  16 << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		Streams:       streams,
		Profile:       ProfileSSD1().Scaled(4096),
	}
}

// TestPreconditionMatchesPerPageReference pins PreconditionRange to its
// definition: the sequential fill, then `multiple` times the range in
// uniformly random single-page writes drawn from the aging RNG, each
// sent through writePage. A twin FTL driven that way page by page must
// end in the same mapping, the same block state and the same counters,
// over the whole drive and over a partition that starts past page 0, on
// a geometry where garbage collection relocates pages in the middle of
// every run of 32 draws.
func TestPreconditionMatchesPerPageReference(t *testing.T) {
	const multiple = 2
	for _, streams := range []int{4, 0} {
		cfg := preconditionConfig(streams)
		for _, r := range []struct{ first, pages int64 }{
			{0, (16 << 20) / 4096},
			{1000, 2500},
		} {
			dev, err := NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dev.PreconditionRange(sim.NewRNG(17), r.first, r.pages, multiple)

			twin := newFTL(dev.cfg)
			twin.sequentialFill(r.first, r.pages)
			aging := sim.NewRNG(17)
			var midRun int
			for i := int64(0); i < r.pages*multiple; i++ {
				w := writePage(twin, r.first+int64(aging.Uint64n(uint64(r.pages))))
				if w.relocated > 0 && i%32 != 31 {
					midRun++
				}
			}
			if midRun == 0 {
				t.Fatalf("streams=%d range %+v: garbage collection never relocated mid-run", streams, r)
			}
			sameFTLState(t, dev.ftl, twin)
			if dev.Stats() != twin.stats {
				t.Fatalf("streams=%d range %+v: device stats %+v, per-page reference %+v",
					streams, r, dev.Stats(), twin.stats)
			}
		}
	}
}

// TestTouchPagesIsReadOnly runs touchPages over every page of an aged
// FTL and requires the whole FTL, counters and RNG included, to equal an
// identically aged twin's: the pass only loads.
func TestTouchPagesIsReadOnly(t *testing.T) {
	touched, twin := twinFTLs(t)
	for _, f := range []*ftl{touched, twin} {
		f.sequentialFill(0, f.logicalPages)
		rng := sim.NewRNG(23)
		for i := int64(0); i < f.logicalPages; i++ {
			writePage(f, int64(rng.Uint64n(uint64(f.logicalPages))))
		}
	}
	lpns := make([]int64, touchBatch)
	for lpn := int64(0); lpn+touchBatch <= touched.logicalPages; lpn += touchBatch {
		for i := range lpns {
			lpns[i] = lpn + int64(i)
		}
		touched.touchPages(lpns)
	}
	touched.sink = twin.sink
	if !reflect.DeepEqual(touched, twin) {
		t.Fatal("touchPages changed the FTL")
	}
}
