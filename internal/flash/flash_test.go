package flash

import (
	"testing"
	"testing/quick"
	"time"

	"ptsbench/internal/sim"
)

// testConfig returns a small device: 64 MiB logical, 4 KiB pages,
// 64-page (256 KiB) blocks, 25% hardware OP.
func testConfig() Config {
	return Config{
		LogicalBytes:  64 << 20,
		PageSize:      4096,
		PagesPerBlock: 64,
		Profile:       testProfile(),
	}
}

func testProfile() Profile {
	return Profile{
		Name:            "test",
		ReadFixed:       10 * time.Microsecond,
		WriteFixed:      10 * time.Microsecond,
		ReadBW:          1 << 30,
		WriteBW:         512 << 20,
		InternalReadBW:  1 << 30,
		InternalWriteBW: 512 << 20,
		EraseTime:       time.Millisecond,
		HardwareOP:      0.25,
	}
}

func newTestDevice(t *testing.T, cfg Config) *Device {
	t.Helper()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(c *Config) {}, true},
		{"zero page size", func(c *Config) { c.PageSize = 0 }, false},
		{"one page per block", func(c *Config) { c.PagesPerBlock = 1 }, false},
		{"tiny capacity", func(c *Config) { c.LogicalBytes = 4096 }, false},
		{"negative OP", func(c *Config) { c.Profile.HardwareOP = -0.1 }, false},
		{"zero write bw", func(c *Config) { c.Profile.WriteBW = 0 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			_, err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := testConfig()
	cfg.Profile.InternalReadBW = 0
	cfg.Profile.InternalWriteBW = 0
	got, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile.InternalReadBW != got.Profile.ReadBW {
		t.Fatal("InternalReadBW default not applied")
	}
}

func TestProfileScaled(t *testing.T) {
	p := ProfileSSD1()
	s := p.Scaled(128)
	if s.WriteBW != p.WriteBW/128 || s.ReadBW != p.ReadBW/128 {
		t.Fatal("bandwidth not scaled down")
	}
	if s.HardwareOP != p.HardwareOP {
		t.Fatal("OP fraction must not scale")
	}
	// Fixed latencies dilate by f so per-op service times scale
	// uniformly; the erase time stays (the erase COUNT is preserved by
	// the geometry scaling, see Scaled's doc comment).
	if s.ReadFixed != p.ReadFixed*128 || s.WriteFixed != p.WriteFixed*128 {
		t.Fatal("fixed latencies must scale up by f")
	}
	if s.EraseTime != p.EraseTime {
		t.Fatal("erase time must not scale")
	}
	if same := p.Scaled(1); same.WriteBW != p.WriteBW {
		t.Fatal("Scaled(1) must be identity")
	}
}

func TestWriteReadCompletionTimes(t *testing.T) {
	d := newTestDevice(t, testConfig())
	// One 4 KiB write: fixed 10µs + 4096B at 512 MiB/s ≈ 7.6µs.
	done := d.SubmitWrite(0, 0, 1)
	if done <= 10*time.Microsecond || done > 30*time.Microsecond {
		t.Fatalf("write completion %v out of expected range", done)
	}
	// A read submitted before the write completes queues behind it.
	rdone := d.SubmitRead(0, 0, 1)
	if rdone <= done {
		t.Fatalf("read should queue behind write: %v <= %v", rdone, done)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := newTestDevice(t, testConfig())
	d.SubmitWrite(0, 0, 10)
	d.SubmitRead(0, 0, 4)
	s := d.Stats()
	if s.HostPagesWritten != 10 {
		t.Fatalf("HostPagesWritten = %d, want 10", s.HostPagesWritten)
	}
	if s.HostPagesRead != 4 {
		t.Fatalf("HostPagesRead = %d, want 4", s.HostPagesRead)
	}
	if s.FlashPagesWritten != 10 {
		t.Fatalf("FlashPagesWritten = %d, want 10 (no GC yet)", s.FlashPagesWritten)
	}
	if got := s.WAD(); got != 1 {
		t.Fatalf("WAD = %v, want 1 before GC", got)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{HostPagesWritten: 10, FlashPagesWritten: 25, Erases: 3}
	b := Stats{HostPagesWritten: 4, FlashPagesWritten: 10, Erases: 1}
	got := a.Sub(b)
	if got.HostPagesWritten != 6 || got.FlashPagesWritten != 15 || got.Erases != 2 {
		t.Fatalf("Sub wrong: %+v", got)
	}
}

func TestWADEmptyIsOne(t *testing.T) {
	if (Stats{}).WAD() != 1 {
		t.Fatal("WAD of zero stats must be 1")
	}
}

// fillSequential writes the whole logical space once, in order.
func fillSequential(d *Device) sim.Duration {
	var now sim.Duration
	pages := d.LogicalPages()
	const chunk = 256
	for lpn := int64(0); lpn < pages; lpn += chunk {
		n := chunk
		if lpn+int64(n) > pages {
			n = int(pages - lpn)
		}
		now = d.SubmitWrite(now, lpn, n)
	}
	return now
}

func TestSequentialOverwriteLowWAD(t *testing.T) {
	d := newTestDevice(t, testConfig())
	now := fillSequential(d)
	// Overwrite sequentially twice more: invalidations are perfectly
	// aligned with blocks, so GC finds empty victims and WA-D stays ~1.
	for pass := 0; pass < 2; pass++ {
		pages := d.LogicalPages()
		for lpn := int64(0); lpn < pages; lpn += 256 {
			n := int64(256)
			if lpn+n > pages {
				n = pages - lpn
			}
			now = d.SubmitWrite(now, lpn, int(n))
		}
	}
	if wad := d.Stats().WAD(); wad > 1.05 {
		t.Fatalf("sequential overwrite WA-D = %v, want ~1", wad)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomOverwriteElevatedWAD(t *testing.T) {
	d := newTestDevice(t, testConfig())
	fillSequential(d)
	before := d.Stats()
	rng := sim.NewRNG(1)
	pages := d.LogicalPages()
	var now sim.Duration
	// Random single-page overwrites totalling 3x the logical capacity.
	for i := int64(0); i < pages*3; i++ {
		now = d.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
	}
	delta := d.Stats().Sub(before)
	wad := delta.WAD()
	// With 25% OP and 100% utilization, greedy GC under uniform random
	// traffic should give WA-D in a 1.5–3.5 band (theory ≈ 2).
	if wad < 1.3 || wad > 3.5 {
		t.Fatalf("random overwrite WA-D = %v, want in [1.3, 3.5]", wad)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWADIncreasesWithUtilization(t *testing.T) {
	// Writing only half the LBA space leaves the rest as implicit OP,
	// so WA-D must be lower than at full utilization.
	run := func(fraction float64) float64 {
		d := newTestDevice(t, testConfig())
		pages := int64(float64(d.LogicalPages()) * fraction)
		rng := sim.NewRNG(7)
		var now sim.Duration
		for lpn := int64(0); lpn < pages; lpn += 64 {
			now = d.SubmitWrite(now, lpn, 64)
		}
		before := d.Stats()
		for i := int64(0); i < pages*3; i++ {
			now = d.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
		}
		return d.Stats().Sub(before).WAD()
	}
	low := run(0.5)
	high := run(1.0)
	if low >= high {
		t.Fatalf("WA-D at 50%% util (%v) should be below WA-D at 100%% (%v)", low, high)
	}
	if low > 1.6 {
		t.Fatalf("WA-D at 50%% utilization = %v, want modest (<1.6)", low)
	}
}

func TestMoreOPLowersWAD(t *testing.T) {
	run := func(op float64) float64 {
		cfg := testConfig()
		cfg.Profile.HardwareOP = op
		d := newTestDevice(t, cfg)
		fillSequential(d)
		before := d.Stats()
		rng := sim.NewRNG(3)
		pages := d.LogicalPages()
		var now sim.Duration
		for i := int64(0); i < pages*3; i++ {
			now = d.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
		}
		return d.Stats().Sub(before).WAD()
	}
	small := run(0.07)
	large := run(0.50)
	if large >= small {
		t.Fatalf("WA-D with 50%% OP (%v) should be below WA-D with 7%% OP (%v)", large, small)
	}
}

// TestStreamsScatterHotAndCold is the placement effect Config.Streams
// models. A hot stream (the first quarter of the LBA space, rewritten
// in random 64-page chunks) interleaves with a cold one (the rest,
// written once in 64-page chunks). With one open host block a chunk
// owns a whole erase block and invalidates all of it on rewrite, so GC
// finds only empty victims. Striping over the default 96 blocks mixes
// hot and cold pages in every block, and GC must move the cold ones.
func TestStreamsScatterHotAndCold(t *testing.T) {
	run := func(streams int) Stats {
		d := newTestDevice(t, Config{
			LogicalBytes:  64 << 20,
			PageSize:      4096,
			PagesPerBlock: 64,
			Streams:       streams,
			Profile:       ProfileSSD1().Scaled(4096),
		})
		pages := d.LogicalPages()
		hot := pages / 4
		coldCursor := hot
		rng := sim.NewRNG(9)
		var now sim.Duration
		for i := 0; i < int(pages/64)*4; i++ {
			now = d.SubmitWrite(now, int64(rng.Uint64n(uint64(hot/64)))*64, 64)
			if coldCursor+64 <= pages {
				now = d.SubmitWrite(now, coldCursor, 64)
				coldCursor += 64
			}
		}
		return d.Stats()
	}
	one := run(1)
	if one.WAD() != 1 || one.Relocations != 0 {
		t.Fatalf("one stream: WA-D %v with %d relocations, want exactly 1 with none", one.WAD(), one.Relocations)
	}
	striped := run(0) // the default, 96
	t.Logf("WA-D: 1 stream %.3f, 96 streams %.3f", one.WAD(), striped.WAD())
	if striped.WAD() < 1.5 || striped.Relocations == 0 {
		t.Fatalf("96 streams: WA-D %v with %d relocations, want >= 1.5 from relocating cold pages", striped.WAD(), striped.Relocations)
	}
}

func TestTrimRange(t *testing.T) {
	d := newTestDevice(t, testConfig())
	d.SubmitWrite(0, 0, 128)
	if d.MappedPages() != 128 {
		t.Fatalf("mapped %d, want 128", d.MappedPages())
	}
	d.Trim(0, 64)
	if d.MappedPages() != 64 {
		t.Fatalf("mapped %d after trim, want 64", d.MappedPages())
	}
	if got := d.Stats().TrimmedPages; got != 64 {
		t.Fatalf("TrimmedPages = %d, want 64", got)
	}
	// Trimming unmapped pages is a no-op.
	d.Trim(0, 64)
	if d.MappedPages() != 64 {
		t.Fatal("double trim changed mapping")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPreconditionReachesFullUtilization(t *testing.T) {
	d := newTestDevice(t, testConfig())
	d.PreconditionRange(sim.NewRNG(1), 0, d.LogicalPages(), 2)
	if d.MappedPages() != d.LogicalPages() {
		t.Fatalf("precondition left %d mapped, want %d", d.MappedPages(), d.LogicalPages())
	}
	// Preconditioning must have triggered GC (random phase writes 2x
	// capacity into a full drive).
	if d.Stats().Relocations == 0 {
		t.Fatal("precondition triggered no GC relocations")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPreconditionedVsTrimmedFirstWrites(t *testing.T) {
	// On a trimmed device the first burst of random writes has WA-D ~1;
	// on a preconditioned device even the first write is an overwrite
	// and GC starts immediately. This is the paper's pitfall #3 at the
	// device level.
	trimmed := newTestDevice(t, testConfig())
	prec := newTestDevice(t, testConfig())
	prec.PreconditionRange(sim.NewRNG(5), 0, prec.LogicalPages(), 2)
	precBase := prec.Stats()

	rng1 := sim.NewRNG(9)
	rng2 := sim.NewRNG(9)
	pages := trimmed.LogicalPages()
	var t1, t2 sim.Duration
	burst := pages / 4
	for i := int64(0); i < burst; i++ {
		t1 = trimmed.SubmitWrite(t1, int64(rng1.Uint64n(uint64(pages))), 1)
		t2 = prec.SubmitWrite(t2, int64(rng2.Uint64n(uint64(pages))), 1)
	}
	wTrim := trimmed.Stats().WAD()
	wPrec := prec.Stats().Sub(precBase).WAD()
	if wTrim > 1.05 {
		t.Fatalf("trimmed first-burst WA-D = %v, want ~1", wTrim)
	}
	if wPrec < 1.2 {
		t.Fatalf("preconditioned first-burst WA-D = %v, want > 1.2", wPrec)
	}
	if t2 <= t1 {
		t.Fatalf("preconditioned device should be slower: trimmed %v, prec %v", t1, t2)
	}
}

func TestNoGCDevice(t *testing.T) {
	cfg := testConfig()
	cfg.Profile = ProfileSSD3()
	cfg.Profile.ReadBW = 1 << 30 // keep the test device small/fast
	cfg.Profile.WriteBW = 1 << 30
	cfg.Profile.InternalReadBW = 1 << 30
	cfg.Profile.InternalWriteBW = 1 << 30
	d := newTestDevice(t, cfg)
	rng := sim.NewRNG(2)
	pages := d.LogicalPages()
	var now sim.Duration
	for i := int64(0); i < pages*2; i++ {
		now = d.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
	}
	if wad := d.Stats().WAD(); wad != 1 {
		t.Fatalf("NoGC device WAD = %v, want exactly 1", wad)
	}
	d.PreconditionRange(sim.NewRNG(3), 0, d.LogicalPages(), 2)
	if wad := d.Stats().WAD(); wad != 1 {
		t.Fatalf("NoGC device WAD after precondition = %v, want 1", wad)
	}
}

// TestNoGCCountsEveryWrite: on NoGC media every host page — submitted or
// preconditioned — is exactly one flash page, and nothing else moves.
func TestNoGCCountsEveryWrite(t *testing.T) {
	cfg := testConfig()
	cfg.Profile.NoGC = true
	d := newTestDevice(t, cfg)
	var now sim.Duration
	now = d.SubmitWrite(now, 0, 10)
	d.SubmitWrite(now, 5, 20)
	d.PreconditionRange(sim.NewRNG(1), 100, 50, 2)
	want := Stats{HostPagesWritten: 10 + 20 + 50*3, FlashPagesWritten: 10 + 20 + 50*3}
	if got := d.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if d.MappedPages() != 25+50 {
		t.Fatalf("mapped %d, want %d", d.MappedPages(), 25+50)
	}
}

// TestCachedWritesCountHostPagesOnce: a page counts as a host write once,
// when the request is admitted, whether it lands in the cache, waits for
// a forced destage or writes through past a full cache.
func TestCachedWritesCountHostPagesOnce(t *testing.T) {
	cfg := testConfig()
	cfg.Profile.CacheBytes = 1 << 20 // 256-page cache
	cfg.Profile.CacheWriteBW = 2 << 30
	d := newTestDevice(t, cfg)
	var now sim.Duration
	var host int64
	for _, n := range []int{100, 200, 1000, 30} { // fits, overflows, writes through, fits
		now = d.SubmitWrite(now, host, n)
		host += int64(n)
		if got := d.Stats().HostPagesWritten; got != host {
			t.Fatalf("after a %d-page write: host pages %d, want %d", n, got, host)
		}
	}
	d.destageTo(now + time.Hour)
	if s := d.Stats(); s.FlashPagesWritten != host || d.MappedPages() != host {
		t.Fatalf("after destage: %+v, mapped %d; want %d flash pages mapped", s, d.MappedPages(), host)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCacheAbsorbsBursts(t *testing.T) {
	cfg := testConfig()
	cfg.Profile.CacheBytes = 8 << 20 // 2048-page cache
	cfg.Profile.CacheWriteBW = 2 << 30
	cfg.Profile.CacheWriteFixed = 5 * time.Microsecond
	cfg.Profile.InternalWriteBW = 64 << 20 // slow backend
	d := newTestDevice(t, cfg)

	// A burst that fits in the cache completes at cache speed.
	done := d.SubmitWrite(0, 0, 1024)
	cacheOnly := cfg.Profile.CacheWriteFixed + time.Duration(1024)*bwTime(4096, cfg.Profile.CacheWriteBW)
	if done > cacheOnly*2 {
		t.Fatalf("cached burst took %v, expected ≈%v", done, cacheOnly)
	}
	if d.CacheFillPages() != 1024 {
		t.Fatalf("cache fill %d, want 1024", d.CacheFillPages())
	}
	// Much later, the cache has destaged in the background.
	d.SubmitRead(10*time.Second, 0, 1)
	d.destageTo(10 * time.Second)
	if d.CacheFillPages() != 0 {
		t.Fatalf("cache fill %d after idle, want 0", d.CacheFillPages())
	}
	if got := d.Stats().FlashPagesWritten; got != 1024 {
		t.Fatalf("flash pages %d after destage, want 1024", got)
	}
}

func TestWriteCacheOverflowStalls(t *testing.T) {
	cfg := testConfig()
	cfg.Profile.CacheBytes = 4 << 20 // 1024-page cache
	cfg.Profile.CacheWriteBW = 2 << 30
	cfg.Profile.InternalWriteBW = 32 << 20 // very slow backend
	d := newTestDevice(t, cfg)

	// First burst fills the cache.
	done1 := d.SubmitWrite(0, 0, 1024)
	// Second immediate burst must wait for destaging at backend speed.
	done2 := d.SubmitWrite(done1, 1024, 1024)
	backendPerPage := bwTime(4096, cfg.Profile.InternalWriteBW)
	minStall := time.Duration(512) * backendPerPage // at least half must destage
	if done2-done1 < minStall {
		t.Fatalf("overflow burst finished too fast: %v, want >= %v stall", done2-done1, minStall)
	}
	if d.Stats().HostPagesWritten != 2048 {
		t.Fatalf("host pages %d, want 2048", d.Stats().HostPagesWritten)
	}
}

func TestWriteCacheHugeRequestWritesThrough(t *testing.T) {
	cfg := testConfig()
	cfg.Profile.CacheBytes = 1 << 20 // 256-page cache
	cfg.Profile.CacheWriteBW = 2 << 30
	d := newTestDevice(t, cfg)
	// Request of 4x the cache size: must not lose pages.
	d.SubmitWrite(0, 0, 1024)
	d.destageTo(time.Hour)
	if got := d.Stats().FlashPagesWritten; got != 1024 {
		t.Fatalf("flash pages %d, want 1024", got)
	}
	if d.MappedPages() != 1024 {
		t.Fatalf("mapped %d, want 1024", d.MappedPages())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTrimDropsPendingCacheWrites(t *testing.T) {
	cfg := testConfig()
	cfg.Profile.CacheBytes = 8 << 20
	cfg.Profile.CacheWriteBW = 2 << 30
	d := newTestDevice(t, cfg)
	d.SubmitWrite(0, 0, 512)
	d.Trim(100, 100)
	d.destageTo(time.Hour)
	// 512 admitted, 100 dropped by trim: 412 destaged.
	if got := d.Stats().FlashPagesWritten; got != 412 {
		t.Fatalf("flash pages %d, want 412", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := newTestDevice(t, testConfig())
	for _, f := range []func(){
		func() { d.SubmitWrite(0, -1, 1) },
		func() { d.SubmitWrite(0, d.LogicalPages(), 1) },
		func() { d.SubmitRead(0, d.LogicalPages()-1, 2) },
		func() { d.Trim(-5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for out-of-range I/O")
				}
			}()
			f()
		}()
	}
}

func TestZeroLengthIO(t *testing.T) {
	d := newTestDevice(t, testConfig())
	if got := d.SubmitWrite(time.Second, 0, 0); got != time.Second {
		t.Fatalf("zero write advanced time: %v", got)
	}
	if got := d.SubmitRead(time.Second, 0, 0); got != time.Second {
		t.Fatalf("zero read advanced time: %v", got)
	}
}

func TestMaxEraseCountGrows(t *testing.T) {
	d := newTestDevice(t, testConfig())
	fillSequential(d)
	rng := sim.NewRNG(4)
	var now sim.Duration
	pages := d.LogicalPages()
	for i := int64(0); i < pages*2; i++ {
		now = d.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
	}
	if d.MaxEraseCount() == 0 {
		t.Fatal("expected erases after sustained overwrites")
	}
}

// Property: after any sequence of writes/trims, FTL invariants hold and
// WA-D >= 1 (flash can never write fewer pages than the host sent, modulo
// cacheless operation).
func TestFTLInvariantProperty(t *testing.T) {
	cfg := Config{
		LogicalBytes:  4 << 20, // small for speed
		PageSize:      4096,
		PagesPerBlock: 16,
		Profile:       testProfile(),
	}
	f := func(seed uint64, ops []uint16) bool {
		d, err := NewDevice(cfg)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		pages := d.LogicalPages()
		var now sim.Duration
		for _, op := range ops {
			lpn := int64(rng.Uint64n(uint64(pages)))
			n := int(op%8) + 1
			if lpn+int64(n) > pages {
				n = int(pages - lpn)
			}
			switch op % 5 {
			case 0, 1, 2:
				now = d.SubmitWrite(now, lpn, n)
			case 3:
				d.Trim(lpn, n)
			case 4:
				now = d.SubmitRead(now, lpn, n)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Logf("invariant violated: %v", err)
			return false
		}
		s := d.Stats()
		return s.FlashPagesWritten >= s.HostPagesWritten-s.TrimmedPages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy GC with ample OP keeps WA-D bounded under random load.
func TestWADBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := Config{
			LogicalBytes:  8 << 20,
			PageSize:      4096,
			PagesPerBlock: 32,
			Profile:       testProfile(), // 25% OP
		}
		d, err := NewDevice(cfg)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		pages := d.LogicalPages()
		var now sim.Duration
		for i := int64(0); i < pages*4; i++ {
			now = d.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
		}
		wad := d.Stats().WAD()
		return wad >= 1 && wad < 4.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, sim.Duration) {
		d, _ := NewDevice(testConfig())
		rng := sim.NewRNG(11)
		pages := d.LogicalPages()
		var now sim.Duration
		for i := int64(0); i < pages*2; i++ {
			now = d.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
		}
		return d.Stats(), now
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("simulation not deterministic: %+v@%v vs %+v@%v", s1, t1, s2, t2)
	}
}

func TestStockProfilesConstruct(t *testing.T) {
	for _, p := range []Profile{ProfileSSD1(), ProfileSSD2(), ProfileSSD3()} {
		cfg := Config{
			LogicalBytes:  64 << 20,
			PageSize:      4096,
			PagesPerBlock: 64,
			Profile:       p.Scaled(4096), // scale down the stock bandwidths
		}
		if _, err := NewDevice(cfg); err != nil {
			t.Fatalf("profile %s: %v", p.Name, err)
		}
	}
}
