package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// mixedKey8 and mixedKey24 are the two key widths of the mixed
// population. Their first byte (0x01) sorts them after every canonical
// 16-byte key (first byte 0x00), and their first word alternates 2i,
// 2i+1, so the 8- and 24-byte keys interleave in key order: tables cut
// from this range hold both widths, and a run of whole pairs holds as
// many arena bytes as the same count of 16-byte keys.
func mixedKey8(i uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, 1<<56|2*i)
}

func mixedKey24(i uint64) []byte {
	k := binary.BigEndian.AppendUint64(nil, 1<<56|(2*i+1))
	k = binary.BigEndian.AppendUint64(k, i)
	return binary.BigEndian.AppendUint64(k, ^i)
}

// TestPointLookupsAcrossKeyWidths loads three interleaved populations —
// canonical 16-byte keys, 8-byte keys and 24-byte keys — through a tiny
// write buffer, so the tree ends with L0 tables and several sorted
// levels, some tables holding only 16-byte keys and some mixing 8 and
// 24. Every live key, every deleted key and absent keys between and
// beside them (including absent keys of a width the surrounding table
// does not hold) must answer exactly like a reference map, with
// sequential and parallel table probes, in both storage modes.
func TestPointLookupsAcrossKeyWidths(t *testing.T) {
	for _, content := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("content=%v/probe=%d", content, par), func(t *testing.T) {
				checkPointLookupsAcrossKeyWidths(t, content, par)
			})
		}
	}
}

func checkPointLookupsAcrossKeyWidths(t *testing.T, content bool, par int) {
	db, _, _ := testEnv(t, 32, content, func(c *Config) {
		c.MemtableBytes = 8 << 10
		c.BaseLevelBytes = 32 << 10
		c.TargetFileBytes = 8 << 10
		c.ProbeParallelism = par
	})
	const (
		ids16    = 1500 // canonical keys use even ids below 2*ids16
		idsMixed = 1500 // mixed keys use pair index i below idsMixed
		valueLen = 96
	)
	live := map[string][]byte{}
	deleted := map[string]bool{}
	rng := sim.NewRNG(5)
	var now sim.Duration
	var err error
	op := uint64(0)
	apply := func(key []byte, del bool) {
		t.Helper()
		op++
		if del {
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
	step := func() {
		del := rng.Uint64n(10) == 0
		switch rng.Uint64n(3) {
		case 0:
			apply(kv.EncodeKey(2*rng.Uint64n(ids16)), del)
		case 1:
			apply(mixedKey8(rng.Uint64n(idsMixed)), del)
		default:
			apply(mixedKey24(rng.Uint64n(idsMixed)), del)
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
			t.Fatalf("key %x (len %d): found=%v, want %v (deleted=%v)",
				key, len(key), found, isLive, deleted[string(key)])
		}
		if content && found && !bytes.Equal(got, want) {
			t.Fatalf("key %x (len %d): value mismatch", key, len(key))
		}
	}
	for k := range live {
		check([]byte(k))
	}
	for k := range deleted {
		check([]byte(k))
	}
	// Absent keys: odd canonical ids are never written; the others share
	// a prefix with a live key but differ in width.
	for id := uint64(0); id < ids16; id++ {
		check(kv.EncodeKey(2*id + 1))
		check(kv.EncodeKey(2 * id)[:12])
		check(append(kv.EncodeKey(2*id), 0))
		check(append(mixedKey8(id), make([]byte, 8)...)) // 16 bytes, inside the mixed range
		check(append(mixedKey8(id), make([]byte, 16)...))
		check(mixedKey24(id)[:20])
	}
	check(mixedKey8(idsMixed + 1)) // beyond every table
	check([]byte{0})               // before every table
}
