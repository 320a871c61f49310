package flash

import (
	"encoding/binary"
	"testing"

	"ptsbench/internal/sim"
)

// fuzzConfig is a 256-page drive of 16-page blocks with four lanes and
// four host streams: small enough that a few dozen runs fill it and keep
// garbage collection busy.
func fuzzConfig() Config {
	return Config{
		LogicalBytes:  1 << 20,
		PageSize:      4096,
		PagesPerBlock: 16,
		Streams:       4,
		Profile:       ProfileSSD1().Scaled(4096).WithParallelism(2, 2),
	}
}

// maxFuzzRuns bounds the runs FuzzFTL decodes from one input, which
// keeps one input to about a millisecond: the fuzzer minimizes every
// input that finds new coverage, running it thousands of times.
const maxFuzzRuns = 128

// FuzzFTL decodes its input into runs of writes, trims, reads and
// preconditioning on a small device, four bytes a run: the kind (low two
// bits; for preconditioning the next bits are the multiple and the
// aging seed), the first page (two bytes) and the length less one, at
// most maxFuzzRuns runs. After every run the device's FTL must pass
// CheckInvariants and be in the same state, with the same counters, as
// a twin FTL driven page by page through writePage and trim, whose
// garbage collection relocates page by page through referenceGC.
func FuzzFTL(f *testing.F) {
	f.Add([]byte{0, 0, 0, 255, 0, 7, 0, 40, 1, 9, 0, 3, 2, 0, 0, 99})
	f.Add([]byte{3 | 2<<2 | 5<<4, 0, 0, 255, 0, 17, 0, 12, 3 | 1<<2, 100, 0, 60})
	// A full-drive precondition, then small writes at scattered offsets:
	// garbage collection relocates in the middle of multi-page writes.
	seed := []byte{3 | 2<<2, 0, 0, 255}
	rng := sim.NewRNG(1)
	for i := 0; i < 64; i++ {
		seed = binary.LittleEndian.AppendUint16(append(seed, 0), uint16(rng.Uint64n(256)))
		seed = append(seed, byte(rng.Uint64n(32)))
	}
	f.Add(seed)
	// Four full-drive preconditions, aging seeds 0 to 3: 2,048 random
	// single-page writes, in which the GC frontier fills in the middle of
	// a victim about ten times, so a collection closes it and opens the
	// next one partway through moving a block.
	f.Add([]byte{3 | 2<<2, 0, 0, 255, 3 | 2<<2 | 1<<4, 0, 0, 255, 3 | 2<<2 | 2<<4, 0, 0, 255, 3 | 2<<2 | 3<<4, 0, 0, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		dev, err := NewDevice(fuzzConfig())
		if err != nil {
			t.Fatal(err)
		}
		twin := newFTL(dev.cfg)
		pages := dev.LogicalPages()
		var now sim.Duration
		data = data[:min(len(data), 4*maxFuzzRuns)]
		for ; len(data) >= 4; data = data[4:] {
			kind := data[0]
			lpn := int64(binary.LittleEndian.Uint16(data[1:])) % pages
			n := min(1+int64(data[3]), pages-lpn)
			switch kind % 4 {
			case 0:
				now = dev.SubmitWrite(now, lpn, int(n))
				for i := int64(0); i < n; i++ {
					writePage(twin, lpn+i)
				}
			case 1:
				dev.Trim(lpn, int(n))
				for i := int64(0); i < n; i++ {
					twin.trim(lpn + i)
				}
			case 2:
				now = dev.SubmitRead(now, lpn, int(n))
				twin.stats.HostPagesRead += n
			case 3:
				multiple, aging := int(kind>>2)%3, uint64(kind>>4)
				dev.PreconditionRange(sim.NewRNG(aging), lpn, n, multiple)
				twin.sequentialFill(lpn, n)
				rng := sim.NewRNG(aging)
				for i := int64(0); i < n*int64(multiple); i++ {
					writePage(twin, lpn+int64(rng.Uint64n(uint64(n))))
				}
			}
			if err := dev.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			sameFTLState(t, dev.ftl, twin)
		}
	})
}
