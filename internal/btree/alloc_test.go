package btree

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/workload"
)

// TestSteadyStatePutAllocs pins the allocation-free update path: on a
// warm tree — dataset loaded and checkpointed, the deliberately tiny
// cache evicting and writing out a leaf on most updates — a Put
// allocates nothing beyond amortized slice growth. Checkpoints are
// pushed out of the measured window: their machinery is background
// work that runs once a minute, not the op loop.
func TestSteadyStatePutAllocs(t *testing.T) {
	tr, _, _ := testEnv(t, 256, false, func(c *Config) {
		c.CheckpointInterval = 1000 * time.Hour
		c.CheckpointPendingBytes = 1 << 40
	})
	const keys = 20000
	key := make([]byte, kv.KeySize)
	var now sim.Duration
	var err error
	for id := uint64(0); id < keys; id++ {
		kv.AppendKey(key, id)
		if now, err = tr.Put(now, key, nil, 400); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = tr.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(2)
	put := func() {
		kv.AppendKey(key, rng.Uint64n(keys))
		var err error
		if now, err = tr.Put(now, key, nil, 400); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		put()
	}
	before := tr.IO().Checkpoints
	if allocs := testing.AllocsPerRun(2000, put); allocs > 0.1 {
		t.Fatalf("steady-state Put allocates %.3f objects/op, want ~0", allocs)
	}
	if tr.IO().Checkpoints != before {
		t.Fatal("a checkpoint ran inside the measured window")
	}

	// A fresh accounting-mode put of a kv.KeySize key keeps the key as
	// its record's words: it takes nothing from the arena. (A put that
	// splits its leaf takes the separator's bytes, so those are skipped.)
	checked := 0
	for id := uint64(keys); id < keys+100; id++ {
		splits := tr.IO().LeafSplits
		kv.AppendKey(key, id)
		taken := arenaTaken(tr.Core.Arena(), func() {
			if now, err = tr.Put(now, key, nil, 400); err != nil {
				t.Fatal(err)
			}
		})
		if tr.IO().LeafSplits != splits {
			continue
		}
		if taken != 0 {
			t.Fatalf("a fresh accounting-mode put of a %d-byte key took %d arena bytes", kv.KeySize, taken)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("every fresh put split its leaf")
	}
}

// TestPlannedWaveAllocs pins the planned read path at zero allocations:
// on a loaded, checkpointed tree whose cache holds a sixteenth of it, a
// read wave of engine.PlanWave keys — PlanGets, then the Gets taking
// the planned leaves, missing and evicting — allocates nothing: the
// plan's arrays were sized for it when the tree was made.
func TestPlannedWaveAllocs(t *testing.T) {
	const keys = 20000
	tr, _, _ := testEnv(t, 256, false, func(c *Config) {
		c.CacheBytes = keys * 400 / 16
		c.CheckpointInterval = 1000 * time.Hour
		c.CheckpointPendingBytes = 1 << 40
	})
	key := make([]byte, kv.KeySize)
	var now sim.Duration
	var err error
	for id := uint64(0); id < keys; id++ {
		kv.AppendKey(key, id)
		if now, err = tr.Put(now, key, nil, 400); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = tr.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	wave := make([][]byte, engine.PlanWave)
	for i := range wave {
		wave[i] = make([]byte, kv.KeySize)
	}
	rng := sim.NewRNG(4)
	read := func() {
		for _, k := range wave {
			kv.AppendKey(k, rng.Uint64n(keys))
		}
		tr.PlanGets(wave)
		for _, k := range wave {
			var found bool
			if now, _, found, err = tr.Get(now, k); err != nil || !found {
				t.Fatalf("get %x: found %v, %v", k, found, err)
			}
		}
		if tr.next != len(wave) {
			t.Fatalf("%d of %d planned leaves taken", tr.next, len(wave))
		}
	}
	misses := tr.IO().CacheMisses
	// Every allocation of the first wave is profiled, so a failure names
	// the code that allocated.
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	stacks := allocStacks()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	runtime.MemProfileRate = rate
	if n := after.Mallocs - before.Mallocs; n != 0 {
		for stack, objects := range allocStacks() {
			// The profile also holds the baseline's own allocations.
			if at := formatStack(stack); objects > stacks[stack] && !strings.Contains(at, ".allocStacks ") {
				t.Logf("%d objects allocated at:%s", objects-stacks[stack], at)
			}
		}
		t.Fatalf("the first planned wave allocates %d objects, want 0", n)
	}
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("a planned wave of %d Gets allocates %.3f objects, want 0", len(wave), allocs)
	}
	if tr.IO().CacheMisses == misses {
		t.Fatal("the measured waves never missed the cache")
	}
}

// allocStacks returns the objects allocated so far per allocating stack,
// from the heap profile once two garbage collections have published it.
func allocStacks() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	stacks := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		stacks[r.Stack0] += r.AllocObjects
	}
	return stacks
}

// formatStack renders a profile stack one "function file:line" frame a
// line.
func formatStack(stack [32]uintptr) string {
	var b strings.Builder
	r := runtime.MemProfileRecord{Stack0: stack}
	frames := runtime.CallersFrames(r.Stack())
	for {
		f, more := frames.Next()
		fmt.Fprintf(&b, "\n\t%s %s:%d", f.Function, f.File, f.Line)
		if !more {
			return b.String()
		}
	}
}

// arenaTaken returns how many bytes the arena handed out while f ran,
// from the distance between a one-byte allocation before f and one
// after it.
func arenaTaken(a *cowtree.RecordArena, f func()) int {
	before := a.Alloc(1)
	f()
	after := a.Alloc(1)
	return int(uintptr(unsafe.Pointer(&after[0])) - uintptr(unsafe.Pointer(&before[0])) - 1)
}

// TestArraysSizedToWhatTheyHold is the footprint gate peak_rss_mb is too
// far away to be: after a sequential load and Zipfian overwrites of
// benchmark-shaped data (4,000-byte accounted values) the leaf entry
// arrays keep at most two slots per entry. Before splitLeaf re-homed the
// half that stays, a 9-entry leaf in 16 slots split into 4 entries still
// holding 16 — most leaves after a sequential load.
func TestArraysSizedToWhatTheyHold(t *testing.T) {
	const keys = 50000
	tr, _, _ := testEnv(t, 1024, false, nil)
	agedLoad(t, tr, keys)
	var entries, slots int
	for _, p := range pages(tr) {
		entries += len(p.Entries)
		slots += cap(p.Entries)
	}
	t.Logf("leaf entries: %d in %d slots (%.2fx)", entries, slots, float64(slots)/float64(entries))
	if entries != keys {
		t.Fatalf("%d leaf entries, want %d", entries, keys)
	}
	if slots > 2*entries {
		t.Errorf("leaf entry arrays keep %d slots for %d entries", slots, entries)
	}
}

// TestPivotArraysSizedToWhatTheyHold is TestArraysSizedToWhatTheyHold's
// twin for the internal pages: after the same load and overwrites, whose
// keys are all kv.KeySize bytes, every internal page holds its
// separators once, as words, with no separator bytes beside them, and
// the word and child arrays keep at most two slots per element. Before
// SplitHalf re-homed the half that stays, every left half kept its
// pre-split capacity, and the words held nearly four slots per
// separator on the benchmark tree; before the pivots held only words,
// every separator was held twice, as words and as bytes.
func TestPivotArraysSizedToWhatTheyHold(t *testing.T) {
	const keys = 50000
	tr, _, _ := testEnv(t, 1024, false, nil)
	agedLoad(t, tr, keys)
	var seps, wordCap, withBytes, children, childCap int
	for _, p := range pages(tr) {
		if p.Leaf {
			continue
		}
		seps += p.NumSeps()
		// The words and the separator bytes are unexported; reflect
		// reads them.
		pv := reflect.ValueOf(&p.Pivots).Elem()
		wordCap += pv.FieldByName("words").Cap()
		if !pv.FieldByName("seps").IsNil() {
			withBytes++
		}
		children += len(p.Children)
		childCap += cap(p.Children)
	}
	t.Logf("separators: %d, words in %d slots (%.2fx); children: %d in %d slots (%.2fx)",
		seps, wordCap, float64(wordCap)/float64(seps), children, childCap, float64(childCap)/float64(children))
	if _, internals := tr.NodeCount(); internals < 8 {
		t.Fatalf("%d internal pages: the tree is not the loaded one", internals)
	}
	if withBytes > 0 {
		t.Errorf("%d internal pages hold separator bytes beside their words", withBytes)
	}
	if wordCap > 2*seps {
		t.Errorf("the words keep %d slots for %d separators", wordCap, seps)
	}
	if childCap > 2*children {
		t.Errorf("child arrays keep %d slots for %d children", childCap, children)
	}
}

// agedLoad puts keys sequential keys of benchmark-shaped data
// (4,000-byte accounted values), then as many Zipfian overwrites.
func agedLoad(tb testing.TB, tr *Tree, keys int) {
	tb.Helper()
	var now sim.Duration
	var err error
	key := make([]byte, kv.KeySize)
	for id := uint64(0); id < uint64(keys); id++ {
		kv.AppendKey(key, id)
		if now, err = tr.Put(now, key, nil, 4000); err != nil {
			tb.Fatal(err)
		}
	}
	gens, err := workload.NewClientGenerators(workload.Spec{
		NumKeys: uint64(keys), ValueBytes: 4000, Dist: workload.Zipfian, ZipfTheta: 0.99,
	}, 3, 1)
	if err != nil {
		tb.Fatal(err)
	}
	gen := gens[0]
	for i := 0; i < keys; i++ {
		kv.AppendKey(key, gen.Next().KeyID)
		if now, err = tr.Put(now, key, nil, 4000); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPageSize bounds the in-memory page, a plain cowtree.Node, of which
// the tree keeps one per leaf and internal page (an internal page adds
// its cowtree.Interior). 80 bytes is its size since the pivot section
// moved behind Node.Interior: the bound may come down, and raising it
// must be a deliberate edit here.
func TestPageSize(t *testing.T) {
	if sz := unsafe.Sizeof(cowtree.Node{}); sz > 80 {
		t.Fatalf("cowtree.Node is %d bytes, bound 80", sz)
	}
}
