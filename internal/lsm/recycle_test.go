package lsm

import (
	"bytes"
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// TestHeldValuesOutliveTheirSources holds content-mode values returned by
// Get and Scan while later puts rotate, flush and compact away the
// memtables and tables they were read from, then checks every held value
// byte for byte: what Get and Scan return belongs to the caller.
func TestHeldValuesOutliveTheirSources(t *testing.T) {
	db, _, _ := testEnv(t, 32, true, func(c *Config) {
		c.MemtableBytes = 8 << 10
		c.BaseLevelBytes = 32 << 10
		c.TargetFileBytes = 8 << 10
	})
	const keys = 400
	value := func(id, gen uint64) []byte {
		v := make([]byte, 48+id%40)
		kv.SynthValue(v, kv.EncodeKey(id), gen)
		return v
	}
	var now sim.Duration
	var err error
	putGen := func(gen uint64) {
		for id := uint64(0); id < keys; id++ {
			if now, err = db.Put(now, kv.EncodeKey(id), value(id, gen), 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	type held struct {
		id, gen uint64
		v       []byte
	}
	var hold []held
	for gen := uint64(0); gen < 8; gen++ {
		putGen(gen)
		// Keys written last sit in the active memtable, earlier ones in
		// immutable memtables and tables.
		for _, id := range []uint64{keys - 1, keys - 7, keys / 2, 3} {
			var v []byte
			var found bool
			if now, v, found, err = db.Get(now, kv.EncodeKey(id)); err != nil || !found {
				t.Fatalf("gen %d key %d: found=%v err=%v", gen, id, found, err)
			}
			hold = append(hold, held{id, gen, v})
		}
		var ents []kv.Entry
		if now, ents, err = db.Scan(now, kv.EncodeKey(keys-60), 60); err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			id, err := kv.DecodeKey(e.Key)
			if err != nil {
				t.Fatal(err)
			}
			hold = append(hold, held{id, gen, e.Value})
		}
	}
	if io := db.IO(); io.Flushes < 8 || io.Compactions < 4 {
		t.Fatalf("want rotations, flushes and compactions under the held values: %+v", io)
	}
	for i, h := range hold {
		if want := value(h.id, h.gen); !bytes.Equal(h.v, want) {
			t.Fatalf("held value %d (key %d, gen %d) changed:\n got %x\nwant %x", i, h.id, h.gen, h.v, want)
		}
	}
}
