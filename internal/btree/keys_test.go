package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// oracleKeys is the key universe of TestKeysAcrossPages: per id, five
// 16-byte keys sharing their high word (the low word 0, 5, 7, 1<<63 and
// all ones), so neighbours in key order differ in either word.
func oracleKeys(ids int) [][]byte {
	var keys [][]byte
	for id := 0; id < ids; id++ {
		for _, lo := range []uint64{0, 5, 7, 1 << 63, ^uint64(0)} {
			k := binary.BigEndian.AppendUint64(nil, uint64(id)*0x0101010101)
			keys = append(keys, binary.BigEndian.AppendUint64(k, lo))
		}
	}
	return keys
}

// oracleEntry is the oracle's record of one live key.
type oracleEntry struct {
	val  []byte // content mode
	vlen int
}

// checkImages asserts every page's accounted footprint is the length of
// its image.
func checkImages(t *testing.T, tr *Tree, phase string) {
	t.Helper()
	for _, p := range pages(tr) {
		if n := len(p.AppendImage(nil, pageMagic, nil)); n != p.Serialized {
			t.Fatalf("%s: page %d (leaf %v) image is %d bytes, accounted %d", phase, p.ID, p.Leaf, n, p.Serialized)
		}
	}
}

// TestKeysAcrossPages drives puts, overwrites and tombstones of
// oracleKeys through a tree of small pages and a small cache — leaves
// and internal pages split, leaves are evicted — in content and
// accounting mode, and after every phase checks each key's Get and
// Scans from several starts against a map, every page's accounted size
// against its image, and the core's audit. It then checkpoints
// (FlushAll) and checks again; in
// content mode it writes more after the checkpoint, recovers from the
// device (checkpoint images plus journal replay) and checks the
// recovered tree the same way. (Recover requires content mode.)
func TestKeysAcrossPages(t *testing.T) {
	for _, content := range []bool{true, false} {
		name := "accounting"
		if content {
			name = "content"
		}
		t.Run(name, func(t *testing.T) { runKeys(t, content) })
	}
}

func runKeys(t *testing.T, content bool) {
	keys := oracleKeys(200)
	tr, _, fs := testEnv(t, 64, content, func(c *Config) {
		c.LeafPageBytes, c.InternalPageBytes = 1<<10, 512
		c.CacheBytes = 16 << 10 // leaves are evicted and written out
		c.JournalSync = true
	})
	oracle := map[string]oracleEntry{}
	rng := sim.NewRNG(36)
	var now sim.Duration
	var err error

	write := func(tr *Tree, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			key := keys[rng.Intn(len(keys))]
			if rng.Intn(5) == 0 {
				if now, err = tr.Delete(now, key); err != nil {
					t.Fatal(err)
				}
				delete(oracle, string(key))
				continue
			}
			vlen := rng.Intn(90)
			var val []byte
			if content {
				val = make([]byte, vlen)
				for j := range val {
					val[j] = byte(i + j)
				}
			}
			if now, err = tr.Put(now, key, val, vlen); err != nil {
				t.Fatal(err)
			}
			oracle[string(key)] = oracleEntry{val: val, vlen: vlen}
		}
	}
	check := func(tr *Tree, phase string) {
		t.Helper()
		checkImages(t, tr, phase)
		if err := tr.Check(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		for _, key := range keys {
			var got []byte
			var found bool
			if now, got, found, err = tr.Get(now, key); err != nil {
				t.Fatal(err)
			}
			want, ok := oracle[string(key)]
			if found != ok || (content && !bytes.Equal(got, want.val)) || (!content && got != nil) {
				t.Fatalf("%s: Get(%x) found=%v value %x, oracle has=%v value %x",
					phase, key, found, got, ok, want.val)
			}
		}
		// Starts at stored keys, an absent key between two of them and
		// the all-ones key, past every one.
		for _, start := range [][]byte{keys[0], keys[1], keys[len(keys)/3], keys[len(keys)/2+1],
			keys[len(keys)-1], binary.BigEndian.AppendUint64(bytes.Clone(keys[len(keys)/4][:8]), 3),
			bytes.Repeat([]byte{0xFF}, kv.KeySize)} {
			var got []kv.Entry
			if now, got, err = tr.Scan(now, start, len(keys)+1); err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, key := range keys {
				if _, ok := oracle[string(key)]; ok && bytes.Compare(key, start) >= 0 {
					want = append(want, string(key))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: scan from %x returned %d entries, oracle has %d", phase, start, len(got), len(want))
			}
			for i, e := range got {
				w := oracle[want[i]]
				if string(e.Key) != want[i] || e.ValueLen != w.vlen || !bytes.Equal(e.Value, w.val) ||
					(!content && e.Value != nil) {
					t.Fatalf("%s: scan from %x entry %d is %x (%d bytes), want %x (%d bytes)",
						phase, start, i, e.Key, e.ValueLen, want[i], w.vlen)
				}
			}
		}
	}

	for phase := 0; phase < 4; phase++ {
		write(tr, 1500)
		check(tr, fmt.Sprintf("phase %d", phase))
	}
	io := tr.IO()
	t.Logf("depth %d, io %+v", tr.Depth(), io)
	if tr.Depth() < 3 || io.LeafSplits == 0 || io.InternalSplits == 0 || io.EvictionWrites == 0 {
		t.Fatalf("depth %d, %d leaf splits, %d internal splits, %d eviction writes: the run was too small",
			tr.Depth(), io.LeafSplits, io.InternalSplits, io.EvictionWrites)
	}
	if now, err = tr.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	check(tr, "after FlushAll")
	if !content {
		return
	}
	// Journal-only writes, then a "crash": recovery reads the
	// checkpointed images and replays the journal.
	write(tr, 400)
	rec, rnow, err := Recover(fs, tr.cfg, now)
	if err != nil {
		t.Fatal(err)
	}
	now = rnow
	check(rec, "after Recover")
	write(rec, 400)
	check(rec, "writes after Recover")
}
