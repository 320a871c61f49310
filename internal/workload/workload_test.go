package workload

import (
	"bytes"
	"testing"

	"ptsbench/internal/kv"
)

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{NumKeys: 10, ValueBytes: 100}, true},
		{Spec{NumKeys: 0, ValueBytes: 100}, false},
		{Spec{NumKeys: 10, ValueBytes: 0}, false},
		{Spec{NumKeys: 10, ValueBytes: 1, ReadFraction: 1.5}, false},
		{Spec{NumKeys: 10, ValueBytes: 1, ReadFraction: -0.1}, false},
		{Spec{NumKeys: 10, ValueBytes: 1, ReadFraction: 0.5}, true},
	}
	for i, c := range cases {
		_, err := c.spec.Validate()
		if c.ok && err != nil {
			t.Fatalf("case %d: unexpected error %v", i, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestZipfThetaDefault(t *testing.T) {
	s, err := Spec{NumKeys: 10, ValueBytes: 1, Dist: Zipfian}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if s.ZipfTheta != 0.99 {
		t.Fatalf("theta default = %v", s.ZipfTheta)
	}
}

func TestUniformCoverage(t *testing.T) {
	g, err := newGenerator(Spec{NumKeys: 100, ValueBytes: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		op := g.Next()
		if op.Kind != OpWrite {
			t.Fatal("write-only workload generated a read")
		}
		counts[op.KeyID]++
	}
	for id, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("key %d hit %d times, want ~1000", id, c)
		}
	}
}

func TestReadFraction(t *testing.T) {
	g, err := newGenerator(Spec{NumKeys: 100, ValueBytes: 10, ReadFraction: 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next().Kind == OpRead {
			reads++
		}
	}
	frac := float64(reads) / n
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("read fraction %.3f, want ~0.5", frac)
	}
}

func TestSequentialWraps(t *testing.T) {
	g, err := newGenerator(Spec{NumKeys: 5, ValueBytes: 1, Dist: SequentialDist}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for want := uint64(0); want < 5; want++ {
			if got := g.Next().KeyID; got != want {
				t.Fatalf("sequential key %d, want %d", got, want)
			}
		}
	}
}

func TestZipfianSkewAndBounds(t *testing.T) {
	const n = 1000
	g, err := newGenerator(Spec{NumKeys: n, ValueBytes: 1, Dist: Zipfian}, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[uint64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		id := g.Next().KeyID
		if id >= n {
			t.Fatalf("key %d out of range", id)
		}
		counts[id]++
	}
	// Skew check: the most popular key should see far more than the
	// uniform share (draws/n = 200).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 1000 {
		t.Fatalf("zipfian max key count %d, expected heavy skew (>1000)", max)
	}
	// Coverage check: scrambling should still reach many distinct keys.
	if len(counts) < n/3 {
		t.Fatalf("zipfian hit only %d distinct keys", len(counts))
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() []Op {
		g, _ := newGenerator(Spec{NumKeys: 50, ValueBytes: 1, ReadFraction: 0.3}, 7)
		ops := make([]Op, 1000)
		for i := range ops {
			ops[i] = g.Next()
		}
		return ops
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs", i)
		}
	}
}

func TestDistString(t *testing.T) {
	if Uniform.String() != "uniform" || Zipfian.String() != "zipfian" ||
		SequentialDist.String() != "sequential" {
		t.Fatal("Dist.String broken")
	}
	if Dist(99).String() == "" {
		t.Fatal("unknown dist should still render")
	}
}

// TestKeyEncoding: the generator writes internal/kv's canonical 16-byte
// key, byte for byte, across the id range — the encoding the engines
// decode and every other caller shares.
func TestKeyEncoding(t *testing.T) {
	g, _ := newGenerator(Spec{NumKeys: 10, ValueBytes: 1}, 1)
	if len(g.Key(3)) != 16 {
		t.Fatal("key should be 16 bytes")
	}
	for _, id := range []uint64{0, 1, 255, 256, 1<<16 - 1, 1 << 16, 1<<32 + 12345, ^uint64(0)} {
		if got, want := g.Key(id), kv.EncodeKey(id); !bytes.Equal(got, want) {
			t.Fatalf("id %d: generator key % x != kv.EncodeKey % x", id, got, want)
		}
	}
}

// TestClientSeedZeroIsBase pins the serving layer's determinism
// contract: client 0's derived seed is the base seed itself, so the
// first client of any (shards × clients) shape replays the exact key
// stream of a historical single-client run.
func TestClientSeedZeroIsBase(t *testing.T) {
	for _, base := range []uint64{0, 1, 42, 0xDEADBEEF} {
		if got := ClientSeed(base, 0); got != base {
			t.Fatalf("ClientSeed(%d, 0) = %d, want the base seed", base, got)
		}
	}
	// And other clients get distinct streams.
	seen := map[uint64]bool{}
	for c := 0; c < 64; c++ {
		s := ClientSeed(42, c)
		if seen[s] {
			t.Fatalf("client %d seed collides", c)
		}
		seen[s] = true
	}
}

// newGenerator is the single-client generator: client 0 of one, which
// draws the historical stream of seed.
func newGenerator(spec Spec, seed uint64) (*Generator, error) {
	gens, err := NewClientGenerators(spec, seed, 1)
	if err != nil {
		return nil, err
	}
	return gens[0], nil
}

// TestClientGeneratorsFirstMatchesSingle: generator 0 of a multi-client
// set produces the same ops as the single-client generator.
func TestClientGeneratorsFirstMatchesSingle(t *testing.T) {
	spec, err := Spec{NumKeys: 1000, ValueBytes: 64, ReadFraction: 0.5}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	single, err := newGenerator(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := NewClientGenerators(spec, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		a, b := single.Next(), gens[0].Next()
		if a != b {
			t.Fatalf("op %d: single %+v, client 0 %+v", i, a, b)
		}
	}
	// Sibling clients do not mirror client 0.
	same := 0
	g, err := newGenerator(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if g.Next() == gens[3].Next() {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("client 3 repeated %d/1000 ops of the base stream", same)
	}
}

func TestClientGeneratorsValidation(t *testing.T) {
	spec, err := Spec{NumKeys: 10, ValueBytes: 1}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClientGenerators(spec, 1, 0); err == nil {
		t.Fatal("expected error for 0 clients")
	}
}

// TestSkewDrawsNothingAtZero: Skew 0 consumes no extra randomness, so
// historical key streams stay bit-identical.
func TestSkewDrawsNothingAtZero(t *testing.T) {
	spec, err := Spec{NumKeys: 1 << 12, ValueBytes: 64, ReadFraction: 0.5}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := newGenerator(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	zeroSkew := spec
	zeroSkew.Skew = 0
	viaZero, err := newGenerator(zeroSkew, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if plain.Next() != viaZero.Next() {
			t.Fatalf("op %d diverged with Skew=0", i)
		}
	}
}

// TestSkewConcentratesKeys: with Skew set, the hot 1/16th of the
// keyspace absorbs at least the skew fraction of operations.
func TestSkewConcentratesKeys(t *testing.T) {
	spec, err := Spec{NumKeys: 1 << 12, ValueBytes: 64, Skew: 0.8}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	hot := spec.NumKeys / 16
	in := 0
	const ops = 20000
	for i := 0; i < ops; i++ {
		if g.Next().KeyID < hot {
			in++
		}
	}
	// 0.8 skew plus the base distribution's own 1/16 mass.
	if frac := float64(in) / ops; frac < 0.78 || frac > 0.95 {
		t.Fatalf("hot-set fraction %v, want ~0.8 + 1/16", frac)
	}
	if _, err := (Spec{NumKeys: 10, ValueBytes: 1, Skew: 1.5}).Validate(); err == nil {
		t.Fatal("expected error for Skew > 1")
	}
}
