package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// getFixture is a warm accounting-mode DB for point-lookup measurements:
// even ids below 2*tableKeys sit in L0 and sorted levels, memKeys ids
// from memBase stay in the active memtable, and odd ids are absent.
type getFixture struct {
	db  *DB
	now sim.Duration
	key []byte
}

const (
	tableKeys = 20000
	memKeys   = 200
	memBase   = 1 << 40
)

func newGetFixture(tb testing.TB) *getFixture {
	tb.Helper()
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  256 << 20,
		PageSize:      4096,
		PagesPerBlock: 256,
		Profile:       flash.ProfileSSD1().Scaled(1024),
	})
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := extfs.Mount(blockdev.New(ssd), extfs.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	db, err := Open(fs, NewConfig(64<<20), sim.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	f := &getFixture{db: db, key: make([]byte, kv.KeySize)}
	for id := uint64(0); id < tableKeys; id++ {
		f.put(tb, 2*id)
	}
	if f.now, err = db.FlushAll(f.now); err != nil {
		tb.Fatal(err)
	}
	if db.deepestPopulatedLevel() == 0 {
		tb.Fatalf("no sorted level populated: %v", db.LevelSizes())
	}
	for id := uint64(0); id < memKeys; id++ {
		f.put(tb, memBase+id)
	}
	if len(db.imm) != 0 || db.mem.Len() != memKeys {
		tb.Fatalf("memtable holds %d keys (%d immutable), want %d", db.mem.Len(), len(db.imm), memKeys)
	}
	// Probe every table once so the lazily built Bloom filters exist.
	for id := uint64(0); id < 2*tableKeys; id++ {
		f.get(tb, id)
	}
	return f
}

func (f *getFixture) put(tb testing.TB, id uint64) {
	var err error
	kv.AppendKey(f.key, id)
	if f.now, err = f.db.Put(f.now, f.key, nil, 400); err != nil {
		tb.Fatal(err)
	}
}

func (f *getFixture) get(tb testing.TB, id uint64) bool {
	var err error
	var found bool
	kv.AppendKey(f.key, id)
	if f.now, _, found, err = f.db.Get(f.now, f.key); err != nil {
		tb.Fatal(err)
	}
	return found
}

// TestPointLookupsAcrossLevels loads 16-byte keys through a tiny write
// buffer, so the tree ends with L0 tables and several sorted levels.
// Every live key, every deleted key and absent keys between and beside
// them must answer exactly like a reference map, with sequential and
// parallel table probes, in both storage modes.
func TestPointLookupsAcrossLevels(t *testing.T) {
	for _, content := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("content=%v/probe=%d", content, par), func(t *testing.T) {
				checkPointLookupsAcrossLevels(t, content, par)
			})
		}
	}
}

func checkPointLookupsAcrossLevels(t *testing.T, content bool, par int) {
	db, _, _ := testEnv(t, 32, content, func(c *Config) {
		c.MemtableBytes = 8 << 10
		c.BaseLevelBytes = 32 << 10
		c.TargetFileBytes = 8 << 10
		c.ProbeParallelism = par
	})
	const (
		ids      = 3000 // keys use the even ids 2..2*ids
		valueLen = 96
	)
	live := map[string][]byte{}
	deleted := map[string]bool{}
	rng := sim.NewRNG(5)
	var now sim.Duration
	var err error
	op := uint64(0)
	step := func() {
		t.Helper()
		op++
		key := kv.EncodeKey(2 * (1 + rng.Uint64n(ids)))
		if rng.Uint64n(10) == 0 {
			now, err = db.Delete(now, key)
			delete(live, string(key))
			deleted[string(key)] = true
		} else {
			var v []byte
			if content {
				v = make([]byte, valueLen)
				kv.SynthValue(v, key, op)
			}
			now, err = db.Put(now, key, v, valueLen)
			live[string(key)] = v
			delete(deleted, string(key))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12000; i++ {
		step()
	}
	if now, err = db.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	// Small flushed batches until L0 holds at least two tables.
	for round := 0; len(db.levels[0]) < 2; round++ {
		if round == 50 {
			t.Fatalf("L0 never reached two tables (levels %v)", db.LevelSizes())
		}
		for i := 0; i < 40; i++ {
			step()
		}
		if now, err = db.FlushAll(now); err != nil {
			t.Fatal(err)
		}
	}
	sorted := 0
	for li := 1; li < len(db.levels); li++ {
		if len(db.levels[li]) > 0 {
			sorted++
		}
	}
	if sorted < 2 {
		t.Fatalf("want >= 2 populated sorted levels, level sizes %v", db.LevelSizes())
	}

	check := func(key []byte) {
		t.Helper()
		var got []byte
		var found bool
		_, got, found, err = db.Get(now, key)
		if err != nil {
			t.Fatal(err)
		}
		want, isLive := live[string(key)]
		if found != isLive {
			t.Fatalf("key %x: found=%v, want %v (deleted=%v)", key, found, isLive, deleted[string(key)])
		}
		if content && found && !bytes.Equal(got, want) {
			t.Fatalf("key %x: value mismatch", key)
		}
	}
	for k := range live {
		check([]byte(k))
	}
	for k := range deleted {
		check([]byte(k))
	}
	// Absent keys: odd ids are never written, id 0 sorts before every
	// table and the largest keys after them.
	for id := uint64(0); id <= 2*ids+2; id += 2 {
		check(kv.EncodeKey(id + 1))
	}
	check(kv.EncodeKey(0))
	check(kv.EncodeKey(^uint64(0)))
	check(bytes.Repeat([]byte{0xFF}, kv.KeySize))
}

// getKinds are the three outcomes of a point lookup; each maps the i-th
// lookup to a key id and says whether it must be found.
var getKinds = []struct {
	name  string
	id    func(i uint64) uint64
	found bool
}{
	{"memtable-hit", func(i uint64) uint64 { return memBase + i%memKeys }, true},
	{"level-hit", func(i uint64) uint64 { return 2 * (i * 97 % tableKeys) }, true},
	{"miss", func(i uint64) uint64 { return 2*(i*97%tableKeys) + 1 }, false},
}

// TestGetAllocs requires a warm DB.Get to allocate nothing, whether it
// is answered by the memtable, by a table or by no one: the lookup's
// probe lives on the stack.
func TestGetAllocs(t *testing.T) {
	f := newGetFixture(t)
	for _, k := range getKinds {
		var i uint64
		allocs := testing.AllocsPerRun(500, func() {
			if f.get(t, k.id(i)) != k.found {
				t.Fatalf("%s: key %d found=%v", k.name, k.id(i), !k.found)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s: Get allocates %.3f objects/op, want 0", k.name, allocs)
		}
	}
}

// BenchmarkGet measures DB.Get per outcome on the warm fixture.
func BenchmarkGet(b *testing.B) {
	f := newGetFixture(b)
	for _, k := range getKinds {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.get(b, k.id(uint64(i)))
			}
		})
	}
}
