package kv

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
	"testing/quick"

	"ptsbench/internal/sim"
)

func TestKeyRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		k := EncodeKey(id)
		if len(k) != KeySize {
			t.Fatalf("key length %d", len(k))
		}
		got, err := DecodeKey(k)
		if err != nil || got != id {
			t.Fatalf("round trip %d -> %d (%v)", id, got, err)
		}
	}
}

func TestKeyOrderMatchesNumericOrder(t *testing.T) {
	f := func(a, b uint64) bool {
		ka, kb := EncodeKey(a), EncodeKey(b)
		c := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendKeyMatchesEncodeKey(t *testing.T) {
	buf := make([]byte, KeySize)
	for _, id := range []uint64{0, 7, 1 << 33} {
		AppendKey(buf, id)
		if !bytes.Equal(buf, EncodeKey(id)) {
			t.Fatalf("AppendKey mismatch for %d", id)
		}
	}
}

func TestDecodeKeyBadLength(t *testing.T) {
	if _, err := DecodeKey([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error for short key")
	}
}

func TestSynthValueDeterministic(t *testing.T) {
	k := EncodeKey(99)
	a := make([]byte, 128)
	b := make([]byte, 128)
	SynthValue(a, k, 5)
	SynthValue(b, k, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("SynthValue not deterministic")
	}
	SynthValue(b, k, 6)
	if bytes.Equal(a, b) {
		t.Fatal("SynthValue ignores seq")
	}
	SynthValue(b, EncodeKey(100), 5)
	if bytes.Equal(a, b) {
		t.Fatal("SynthValue ignores key")
	}
}

func TestSynthValueNotAllZero(t *testing.T) {
	v := make([]byte, 64)
	SynthValue(v, EncodeKey(1), 1)
	zero := true
	for _, b := range v {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		t.Fatal("SynthValue produced all zeros")
	}
}

func TestEntryCompare(t *testing.T) {
	a := &Entry{Key: EncodeKey(1), Seq: 10}
	b := &Entry{Key: EncodeKey(2), Seq: 5}
	if Compare(a, b) >= 0 {
		t.Fatal("key order broken")
	}
	// Same key: newer seq sorts first.
	c := &Entry{Key: EncodeKey(1), Seq: 20}
	if Compare(c, a) >= 0 {
		t.Fatal("seq order broken: newer must sort before older")
	}
	if Compare(a, a) != 0 {
		t.Fatal("self-compare not zero")
	}
}

func TestEngineStatsSub(t *testing.T) {
	a := EngineStats{Puts: 10, Gets: 5, UserBytesWritten: 1000}
	b := EngineStats{Puts: 4, Gets: 2, UserBytesWritten: 300}
	d := a.Sub(b)
	if d.Puts != 6 || d.Gets != 3 || d.UserBytesWritten != 700 {
		t.Fatalf("Sub wrong: %+v", d)
	}
}

func TestSepCache(t *testing.T) {
	var c SepCache
	if c.fast {
		t.Fatal("zero cache must be inactive")
	}
	seps := [][]byte{EncodeKey(10), EncodeKey(20), EncodeKey(30)}
	c.Refresh(seps)
	if !c.fast {
		t.Fatal("cache inactive after Refresh over fixed-size keys")
	}
	for _, tc := range []struct {
		id   uint64
		want int
	}{{5, 0}, {10, 1}, {15, 1}, {20, 2}, {29, 2}, {30, 3}, {99, 3}} {
		if got := c.UpperBound(seps, NewTarget(EncodeKey(tc.id))); got != tc.want {
			t.Fatalf("UpperBound(%d) = %d, want %d", tc.id, got, tc.want)
		}
	}
	// Insert keeps the cache consistent with a full refresh.
	c.Insert(1, EncodeKey(15))
	seps = [][]byte{EncodeKey(10), EncodeKey(15), EncodeKey(20), EncodeKey(30)}
	var ref SepCache
	ref.Refresh(seps)
	probe := NewTarget(EncodeKey(16))
	if c.UpperBound(seps, probe) != ref.UpperBound(seps, probe) || c.UpperBound(seps, probe) != 2 {
		t.Fatal("Insert diverged from Refresh")
	}
	// A non-fixed-size separator deactivates the cache.
	c.Insert(0, []byte("short"))
	if c.fast {
		t.Fatal("cache must deactivate on a non-fixed-size separator")
	}
	c.Refresh([][]byte{[]byte("x")})
	if c.fast {
		t.Fatal("Refresh over variable keys must stay inactive")
	}

	// Randomized: grow a separator set by Inserts, with a full Refresh
	// now and then, and check UpperBound against sort.Search over the
	// separator bytes — for fixed-size probes on both sides of every
	// separator, for probes of other lengths (the byte path), through an
	// inactive cache, and after a short separator deactivates the cache.
	// The high word varies too, though the workload keys never use it.
	rng := sim.NewRNG(9)
	key := func() []byte {
		k := make([]byte, KeySize)
		binary.BigEndian.PutUint64(k, rng.Uint64n(3))
		binary.BigEndian.PutUint64(k[8:], rng.Uint64n(1000))
		return k
	}
	want := func(seps [][]byte, k []byte) int {
		return sort.Search(len(seps), func(i int) bool { return CompareKeys(seps[i], k) > 0 })
	}
	check := func(step int, c *SepCache, seps [][]byte) {
		t.Helper()
		var inactive SepCache
		probes := [][]byte{key(), key()[:8], append(key(), 7)}
		for _, s := range seps {
			if len(s) == KeySize {
				next := append([]byte(nil), s...)
				next[KeySize-1]++
				probes = append(probes, s, next, s[:12])
			}
		}
		for _, k := range probes {
			w := want(seps, k)
			if got := c.UpperBound(seps, NewTarget(k)); got != w {
				t.Fatalf("step %d: UpperBound(%x) = %d, sort.Search %d (fast=%v, %d seps)", step, k, got, w, c.fast, len(seps))
			}
			if got := inactive.UpperBound(seps, NewTarget(k)); got != w {
				t.Fatalf("step %d: inactive UpperBound(%x) = %d, sort.Search %d", step, k, got, w)
			}
		}
	}
	for round := 0; round < 20; round++ {
		var c SepCache
		var seps [][]byte
		c.Refresh(seps)
		for step := 0; step < 60; step++ {
			k := key()
			if round%5 == 4 && step == 40 {
				k = []byte("short") // deactivates the cache from here on
			}
			i := want(seps, k)
			if i > 0 && CompareKeys(seps[i-1], k) == 0 {
				continue // separators are distinct
			}
			seps = append(seps[:i], append([][]byte{k}, seps[i:]...)...)
			if rng.Uint64n(8) == 0 {
				c.Refresh(seps)
			} else {
				c.Insert(i, k)
			}
			check(step, &c, seps)
		}
	}
}
