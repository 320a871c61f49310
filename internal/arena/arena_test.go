package arena

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"
)

// sameArray reports whether two slices start at the same array element.
func sameArray[T any](a, b []T) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b)
}

func TestPoolGetClassAndReuse(t *testing.T) {
	var p Pool[int]
	if s := p.Get(0); s != nil {
		t.Fatalf("Get(0) = %v, want nil", s)
	}
	for _, tc := range []struct{ n, wantCap int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {128, 128}, {129, 256}, {1000, 1024},
	} {
		if s := p.Get(tc.n); len(s) != tc.n || cap(s) != tc.wantCap {
			t.Fatalf("Get(%d): len %d cap %d, want cap %d", tc.n, len(s), cap(s), tc.wantCap)
		}
	}
	// A retired array serves the next Get of its class — and only that
	// class — without being cleared.
	a := p.Get(5)
	for i := range a {
		a[i] = 7
	}
	p.Put(a)
	if other := p.Get(3); sameArray(other, a) {
		t.Fatal("a class-8 array served a class-4 request")
	}
	if b := p.Get(8); !sameArray(b, a) || len(b) != 8 || b[4] != 7 {
		t.Fatalf("Get(8) after Put did not reuse the retired array (len %d)", len(b))
	}
	if c := p.Get(8); sameArray(c, a) {
		t.Fatal("one retired array handed out twice")
	}
	p.Put(nil) // no-op
	// An odd-capacity array lands in the largest class it fully serves.
	p.Put(make([]int, 0, 12))
	if s := p.Get(8); cap(s) != 12 {
		t.Fatalf("cap-12 array should serve class 8, got cap %d", cap(s))
	}
}

func TestPoolGrowInsertAndCloneTail(t *testing.T) {
	var p Pool[int]
	var s []int
	// Front, middle and end inserts, each crossing capacity boundaries
	// (0→1→2→4→8→16) along the way.
	var want []int
	for i := 0; i < 20; i++ {
		at := []int{0, len(want) / 2, len(want)}[i%3]
		s = p.GrowInsert(s, at, i)
		want = slices.Insert(want, at, i)
		if !slices.Equal(s, want) {
			t.Fatalf("after %d inserts: %v, want %v", i+1, s, want)
		}
		if c := cap(s); c&(c-1) != 0 || c >= 2*len(s) && len(s) > 1 {
			t.Fatalf("len %d in cap %d: not the next power of two", len(s), c)
		}
	}
	// Growing retires the outgrown array for the next Get of its class.
	full := p.Get(16)
	copy(full, want)
	grown := p.GrowInsert(full, 16, 99)
	if cap(grown) != 32 || grown[16] != 99 || !slices.Equal(grown[:16], want[:16]) {
		t.Fatalf("grew to cap %d: %v", cap(grown), grown)
	}
	if again := p.Get(16); !sameArray(again, full) {
		t.Fatal("GrowInsert did not retire the array it outgrew")
	}

	tail := p.CloneTail(want, 15)
	if !slices.Equal(tail, want[15:]) || cap(tail) != 8 || sameArray(tail, want[15:]) {
		t.Fatalf("CloneTail: %v cap %d", tail, cap(tail))
	}
	if empty := p.CloneTail(want, len(want)); empty != nil {
		t.Fatalf("CloneTail of nothing = %v, want nil", empty)
	}
}

func TestPoolFit(t *testing.T) {
	var p Pool[int]
	// Already the right class: the same slice comes back.
	s := p.Get(5)
	copy(s, []int{1, 2, 3, 4, 5})
	if got := p.Fit(s); !sameArray(got, s) || len(got) != 5 {
		t.Fatal("Fit moved a slice whose class already fits")
	}
	if got := p.Fit(s[:8]); !sameArray(got, s) {
		t.Fatal("Fit moved a full array")
	}
	// A class too large: re-homed, contents kept, big array retired.
	big := p.Get(16)
	for i := range big {
		big[i] = i * i
	}
	got := p.Fit(big[:7])
	if sameArray(got, big) || cap(got) != 8 || !slices.Equal(got, big[:7]) {
		t.Fatalf("Fit(len 7 in cap 16) = %v (cap %d)", got, cap(got))
	}
	if again := p.Get(16); !sameArray(again, big) {
		t.Fatal("Fit did not retire the oversized array")
	}
	// One slot short of the boundary: cap 16 is right for 9, wrong for 8.
	nine := p.Get(16)
	if !sameArray(p.Fit(nine[:9]), nine) {
		t.Fatal("Fit moved 9 entries out of a 16-slot array")
	}
	if sameArray(p.Fit(nine[:8]), nine) {
		t.Fatal("Fit kept 8 entries in a 16-slot array")
	}
	// Empty: nil, and the array goes back.
	arr := p.Get(4)
	if got := p.Fit(arr[:0]); got != nil {
		t.Fatalf("Fit(empty) = %v, want nil", got)
	}
	if again := p.Get(4); !sameArray(again, arr) {
		t.Fatal("Fit(empty) did not retire the array")
	}
	if got := p.Fit(nil); got != nil {
		t.Fatalf("Fit(nil) = %v", got)
	}
}

func TestPoolCarvesSmallArraysFromChunks(t *testing.T) {
	var p Pool[int]
	a, b := p.Get(3), p.Get(3)
	// Neighbours in one chunk, each limited to its own slots: filling one
	// to capacity and appending past it never touches the other.
	if uintptr(unsafe.Pointer(&b[0]))-uintptr(unsafe.Pointer(&a[0])) != 4*unsafe.Sizeof(int(0)) {
		t.Fatal("two class-4 arrays were not carved side by side from one chunk")
	}
	for i := range b {
		b[i] = -1
	}
	a = a[:0]
	for i := 0; i < 4; i++ {
		a = append(a, i)
	}
	if cap(a) != 4 || !slices.Equal(b, []int{-1, -1, -1}) {
		t.Fatalf("filling a to cap touched b: %v (cap a %d)", b, cap(a))
	}
	a = append(a, 4) // past capacity: append must move a, not spill into b
	if !slices.Equal(b, []int{-1, -1, -1}) || b[:4][3] != 0 {
		t.Fatalf("append past cap spilled into the neighbour: %v", b[:4])
	}
	// Above the carve limit every array is its own allocation.
	if c := p.Get(poolCarveSlots + 1); cap(c) != 2*poolCarveSlots {
		t.Fatalf("cap %d", cap(c))
	}

	// 1,000 small arrays cost their share of chunks, not 1,000 objects…
	var q Pool[int]
	held := make([][]int, 0, 1000)
	fresh := testing.AllocsPerRun(1, func() {
		held = held[:0]
		q = Pool[int]{}
		for i := 0; i < 1000; i++ {
			held = append(held, q.Get(3))
		}
	})
	if limit := float64(1000*4/poolChunkSlots + 1); fresh > limit {
		t.Fatalf("1000 Get(3) cost %.0f allocations, want <= %.0f", fresh, limit)
	}
	// …and nothing once they recycle.
	for _, s := range held {
		q.Put(s)
	}
	recycled := testing.AllocsPerRun(10, func() {
		for i := range held {
			held[i] = q.Get(3)
		}
		for _, s := range held {
			q.Put(s)
		}
	})
	if recycled != 0 {
		t.Fatalf("recycled Get/Put allocates %.1f objects per 1000", recycled)
	}
}

func TestArena(t *testing.T) {
	a := Arena[byte]{Chunk: 1 << 10}
	if a.Clone(nil) != nil {
		t.Fatal("Clone(nil) must stay nil")
	}
	k1 := a.Clone([]byte("first-key"))
	k2 := a.Clone([]byte("second"))
	if string(k1) != "first-key" || string(k2) != "second" {
		t.Fatalf("Clone contents: %q %q", k1, k2)
	}
	// Full-slice-expression capacity: an append reallocates instead of
	// running into the next key.
	if cap(k1) != len(k1) {
		t.Fatalf("cap %d != len %d", cap(k1), len(k1))
	}
	_ = append(k1, "XXXX"...)
	if string(k2) != "second" {
		t.Fatalf("append to one key overwrote the next: %q", k2)
	}
	z := a.Alloc(32)
	if len(z) != 32 || cap(z) != 32 || !bytes.Equal(z, make([]byte, 32)) {
		t.Fatal("Alloc must return a zeroed, capacity-limited slice")
	}
	// Oversize requests bypass the chunk and leave it intact.
	rest := len(a.rest)
	big := a.Alloc(a.Chunk + 1)
	if len(big) != a.Chunk+1 || len(a.rest) != rest {
		t.Fatalf("oversize Alloc: len %d, chunk %d -> %d", len(big), rest, len(a.rest))
	}
	// A request that does not fit the rest of the chunk starts a new one.
	a.Alloc(rest)
	if more := a.Alloc(8); len(more) != 8 || len(a.rest) != a.Chunk-8 {
		t.Fatalf("new chunk: len %d, rest %d", len(more), len(a.rest))
	}
	// The zero value carves chunks of defaultChunk.
	var d Arena[int]
	d.Alloc(1)
	if len(d.rest) != defaultChunk-1 {
		t.Fatalf("zero-value arena: rest %d after one element, want %d", len(d.rest), defaultChunk-1)
	}
}

func TestArenaNew(t *testing.T) {
	type rec struct{ a, b int }
	var s Arena[rec]
	seen := map[*rec]bool{}
	for i := 0; i < 2*defaultChunk+3; i++ {
		r := s.New()
		if *r != (rec{}) {
			t.Fatalf("New %d not zeroed: %+v", i, *r)
		}
		if seen[r] {
			t.Fatalf("New %d returned a pointer handed out before", i)
		}
		seen[r] = true
		r.a, r.b = i, -i // dirtying one must not show up in a later New
	}
}

// TestArenaRecyclesChunks releases an arena's chunks to its free list
// and carves a second arena from it: every chunk the second takes while
// released ones are free is a released one, each comes back cleared, so
// no uncarved slot holds a pointer from the first arena, and the list
// keeps at most maxFree chunks. An arena without a free list keeps no
// chunk list at all.
func TestArenaRecyclesChunks(t *testing.T) {
	var free Chunks[*int]
	old := Arena[*int]{Chunk: 16, Free: &free}
	x := 7
	for i := 0; i < 5*16; i++ {
		old.Alloc(1)[0] = &x
	}
	released := map[**int]bool{}
	for _, c := range old.taken {
		released[&c[0]] = true
	}
	old.Release()
	if len(free) != 5 || len(old.taken) != 0 || old.rest != nil {
		t.Fatalf("Release left %d chunks on the free list (want 5) and %d taken", len(free), len(old.taken))
	}

	reused := Arena[*int]{Chunk: 16, Free: &free}
	for i := 0; i < 3; i++ {
		reused.Alloc(16)
	}
	for _, p := range reused.Alloc(3) {
		if p != nil {
			t.Fatal("a carved slot still points into a released arena")
		}
	}
	for _, c := range reused.taken {
		if !released[&c[0]] {
			t.Fatal("the arena took a fresh chunk while released ones were free")
		}
	}
	if len(reused.rest) != 13 {
		t.Fatalf("%d uncarved slots, want 13", len(reused.rest))
	}
	for _, p := range reused.rest {
		if p != nil {
			t.Fatal("an uncarved slot still points into a released arena")
		}
	}
	if len(free) != 1 {
		t.Fatalf("%d chunks left on the free list, want 1", len(free))
	}
	reused.Alloc(16)
	reused.Alloc(16)
	if c := reused.taken[len(reused.taken)-1]; released[&c[0]] {
		t.Fatal("a sixth chunk came from a five-chunk free list")
	}

	// The bound: a list holds at most maxFree chunks.
	big := Arena[*int]{Chunk: 1, Free: &free}
	for i := 0; i < maxFree+10; i++ {
		big.Alloc(1)
	}
	big.Release()
	if len(free) != maxFree {
		t.Fatalf("free list holds %d chunks, want the bound %d", len(free), maxFree)
	}

	var plain Arena[*int]
	plain.Alloc(defaultChunk)
	plain.Alloc(1)
	if plain.taken != nil {
		t.Fatalf("an arena without a free list kept %d chunks", len(plain.taken))
	}
}

func TestPoolGrow(t *testing.T) {
	var p Pool[int]
	s := p.Get(3)[:2]
	if g := p.Grow(s, 2); !sameArray(g, s) || len(g) != 2 {
		t.Fatal("Grow moved a slice that had the room")
	}
	s = append(s, 1, 2)
	g := p.Grow(s, 1)
	if cap(g) != 8 || len(g) != 4 || !slices.Equal(g, s) || sameArray(g, s) {
		t.Fatalf("Grow(len 4 cap 4, 1) = %v cap %d", g, cap(g))
	}
	if again := p.Get(4); !sameArray(again, s) {
		t.Fatal("Grow did not retire the array it outgrew")
	}
	if g := p.Grow(nil, 5); len(g) != 0 || cap(g) != 8 {
		t.Fatalf("Grow(nil, 5): len %d cap %d", len(g), cap(g))
	}
}

// TestSpare: Get hands out retired values newest first, then new zeroed
// ones, and leaves no pointer behind in the list.
func TestSpare(t *testing.T) {
	var s Spare[[4]int]
	a, b := s.Get(), s.Get()
	if a == b || *a != [4]int{} {
		t.Fatal("Get on an empty list must return a new zeroed value each time")
	}
	s.Put(a)
	s.Put(b)
	if got := s.Get(); got != b {
		t.Fatal("Get must return the most recently retired value")
	}
	if got := s.Get(); got != a {
		t.Fatal("Get must return the retired values newest first")
	}
	if len(s) != 0 || s[:1][0] != nil {
		t.Fatal("an emptied list keeps a pointer to a value it handed out")
	}
	if c := s.Get(); c == a || c == b {
		t.Fatal("an emptied list handed out a value twice")
	}
}
