package cowtree

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// TestPivots holds the pivot set to sort.Search over its separator
// bytes. The fixed cases pin the zero value, the lookup rule (a key
// equal to a separator goes right) and InsertChild against a full
// rebuild of the words. The random walk then grows sets by InsertChild
// (with a full rebuild now and then) and splits them in half, and after
// every step checks ChildFor for probes on both sides of every
// separator; the children against a reference list, ChildIndex and
// PivotBytes; and every few steps the codec (AppendPivots, ParsePivots)
// round trip, and that ParsePivots refuses the section with one
// separator's length field set to another width. The high word varies
// too, though the workload keys never use it.
func TestPivots(t *testing.T) {
	var zero Pivots
	if zero.NumSeps() != 0 {
		t.Fatal("the zero value must be an empty set")
	}
	if got := zero.ChildFor(kv.NewTarget(kv.EncodeKey(5))); got != 0 {
		t.Fatalf("empty set: ChildFor = %d, want 0", got)
	}
	// rebuild is a set holding seps, built without InsertChild.
	rebuild := func(seps [][]byte) Pivots {
		var p Pivots
		p.words = make([]sepWords, len(seps))
		for i, sep := range seps {
			p.words[i].hi, p.words[i].lo = kv.DecomposeKey(sep)
		}
		return p
	}
	p := rebuild([][]byte{kv.EncodeKey(10), kv.EncodeKey(20), kv.EncodeKey(30)})
	p.Children = []NodeID{1, 2, 3, 4}
	for _, tc := range []struct {
		id   uint64
		want int
	}{{5, 0}, {10, 1}, {15, 1}, {20, 2}, {29, 2}, {30, 3}, {99, 3}} {
		if got := p.ChildFor(kv.NewTarget(kv.EncodeKey(tc.id))); got != tc.want {
			t.Fatalf("ChildFor(%d) = %d, want %d", tc.id, got, tc.want)
		}
	}
	// InsertChild keeps the words consistent with a full rebuild, and
	// does not keep the separator's bytes.
	sep := kv.EncodeKey(15)
	p.InsertChild(1, sep, 5)
	clear(sep)
	ref := rebuild([][]byte{kv.EncodeKey(10), kv.EncodeKey(15), kv.EncodeKey(20), kv.EncodeKey(30)})
	probe := kv.NewTarget(kv.EncodeKey(16))
	if p.ChildFor(probe) != ref.ChildFor(probe) || p.ChildFor(probe) != 2 || !slices.Equal(p.words, ref.words) {
		t.Fatal("InsertChild diverged from a rebuild")
	}
	if !slices.Equal(p.Children, []NodeID{1, 2, 5, 3, 4}) {
		t.Fatalf("children %v after inserting 5 after position 1", p.Children)
	}

	rng := sim.NewRNG(9)
	reached := map[string]int{}
	nextID := NodeID(1)
	key := func() []byte {
		k := make([]byte, kv.KeySize)
		binary.BigEndian.PutUint64(k, rng.Uint64n(3))
		binary.BigEndian.PutUint64(k[8:], rng.Uint64n(1000))
		return k
	}
	want := func(seps [][]byte, k []byte) int {
		return sort.Search(len(seps), func(i int) bool { return kv.CompareKeys(seps[i], k) > 0 })
	}
	// sepsOf reads a set's separators back as bytes of their own.
	sepsOf := func(p *Pivots) [][]byte {
		out := [][]byte{}
		var kb [kv.KeySize]byte
		for i := 0; i < p.NumSeps(); i++ {
			out = append(out, bytes.Clone(p.Sep(i, &kb)))
		}
		return out
	}
	check := func(step int, p *Pivots, children []NodeID) {
		t.Helper()
		seps := sepsOf(p)
		probes := [][]byte{key(), key()}
		for _, s := range seps {
			next := append([]byte(nil), s...)
			next[kv.KeySize-1]++
			probes = append(probes, s, next)
		}
		for _, k := range probes {
			if got, w := p.ChildFor(kv.NewTarget(k)), want(seps, k); got != w {
				t.Fatalf("step %d: ChildFor(%x) = %d, sort.Search %d (%d seps)", step, k, got, w, len(seps))
			}
		}
		if !slices.Equal(p.Children, children) || len(children) != len(seps)+1 {
			t.Fatalf("step %d: children %v, want %v (%d seps)", step, p.Children, children, len(seps))
		}
		if j := rng.Intn(len(children)); p.ChildIndex(children[j]) != j {
			t.Fatalf("step %d: ChildIndex(%d) = %d, want %d", step, children[j], p.ChildIndex(children[j]), j)
		}
		if p.ChildIndex(nextID) != -1 {
			t.Fatalf("step %d: ChildIndex of an absent child = %d", step, p.ChildIndex(nextID))
		}
		if size := PageHeaderBytes + ChildRefBytes*len(children) + (2+kv.KeySize)*len(seps); p.PivotBytes() != size {
			t.Fatalf("step %d: PivotBytes %d, recounted %d", step, p.PivotBytes(), size)
		}
	}
	extent := func(id NodeID) Extent { return Extent{Start: int64(id) * 7, Pages: int64(id%5) + 1} }
	roundTrip := func(step int, p *Pivots) {
		t.Helper()
		img := p.AppendPivots([]byte("prefix"), extent)[len("prefix"):]
		if PageHeaderBytes+len(img) != p.PivotBytes() {
			t.Fatalf("step %d: section is %d bytes, PivotBytes %d", step, len(img), p.PivotBytes())
		}
		var got Pivots
		parsed := append(slices.Clone(img), 0xEE)
		exts, used, ok := got.ParsePivots(parsed, p.NumSeps())
		if !ok || used != len(img) {
			t.Fatalf("step %d: ParsePivots ok=%v used %d of %d", step, ok, used, len(img))
		}
		clear(parsed) // the set keeps no bytes of the image
		if !slices.EqualFunc(sepsOf(&got), sepsOf(p), bytes.Equal) || len(got.Children) != len(p.Children) {
			t.Fatalf("step %d: the round trip changed the separators or children", step)
		}
		for i, c := range p.Children {
			if exts[i] != extent(c) || got.Children[i] != NilNode {
				t.Fatalf("step %d: child %d parsed as %v (id %d), want %v", step, i, exts[i], got.Children[i], extent(c))
			}
		}
		if _, _, ok := new(Pivots).ParsePivots(img[:len(img)-1], p.NumSeps()); ok {
			t.Fatalf("step %d: a section one byte short parsed", step)
		}
		if n := p.NumSeps(); n > 0 {
			bad := slices.Clone(img)
			i := rng.Intn(n)
			binary.LittleEndian.PutUint16(bad[i*(2+kv.KeySize):], uint16(8+16*rng.Intn(2)))
			if _, _, ok := new(Pivots).ParsePivots(bad, n); ok {
				t.Fatalf("step %d: a section whose separator %d is not %d bytes parsed", step, i, kv.KeySize)
			}
			reached["codec refusing another width"]++
		}
		reached["codec"]++
	}
	for round := 0; round < 20; round++ {
		var p Pivots
		children := []NodeID{nextID}
		p.Children = []NodeID{nextID}
		nextID++
		for step := 0; step < 60; step++ {
			if step%16 == 15 && p.NumSeps() >= 3 { // the node splits; carry on with one half
				old, oldChildren := sepsOf(&p), slices.Clone(children)
				var right Pivots
				var kb [kv.KeySize]byte
				promoted := p.SplitHalf(&right, &kb)
				mid := len(old) / 2
				if !bytes.Equal(promoted, old[mid]) ||
					!slices.EqualFunc(sepsOf(&p), old[:mid], bytes.Equal) || !slices.EqualFunc(sepsOf(&right), old[mid+1:], bytes.Equal) {
					t.Fatalf("step %d: split %d separators at %d wrong", step, len(old), mid)
				}
				check(step, &p, oldChildren[:mid+1])
				check(step, &right, oldChildren[mid+1:])
				reached["split"]++
				children = oldChildren[:mid+1]
				if rng.Intn(2) == 0 {
					p, children = right, oldChildren[mid+1:]
				}
				check(step, &p, children)
				continue
			}
			k := key()
			seps := sepsOf(&p)
			i := want(seps, k)
			if i > 0 && kv.CompareKeys(seps[i-1], k) == 0 {
				continue // separators are distinct
			}
			before := p.PivotBytes()
			if rng.Uint64n(8) == 0 {
				cs := p.Children
				p = rebuild(slices.Insert(seps, i, k))
				p.Children = slices.Insert(cs, i+1, nextID)
			} else if d := p.InsertChild(i, k, nextID); before+d != p.PivotBytes() {
				t.Fatalf("step %d: InsertChild's delta %d, PivotBytes moved %d", step, d, p.PivotBytes()-before)
			}
			children = slices.Insert(children, i+1, nextID)
			nextID++
			check(step, &p, children)
			if step%8 == 0 {
				roundTrip(step, &p)
			}
		}
	}
	t.Logf("reached %v", reached)
	for _, what := range []string{"codec", "codec refusing another width", "split"} {
		if reached[what] == 0 {
			t.Errorf("the walk never reached: %s", what)
		}
	}
}
