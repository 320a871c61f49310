package btree

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// leafRecords returns a leaf's entries field by field: key, value
// bytes, accounted value length, sequence and tombstone flag.
func leafRecords(p *cowtree.Node) []kv.Entry {
	out := make([]kv.Entry, len(p.Entries))
	for i := range p.Entries {
		e := &p.Entries[i]
		var kb [kv.KeySize]byte
		out[i] = kv.Entry{Key: bytes.Clone(e.Key(&kb)), Value: e.Val(), ValueLen: e.Vlen(), Seq: e.Seq(), Deleted: e.Del()}
	}
	return out
}

// samePageImage reports the first difference between two parsed pages
// and the child extents parsePage returned with them: kind, leaf
// entries, separators or child extents.
func samePageImage(a, b *cowtree.Node, aExts, bExts []cowtree.Extent) string {
	sameEntry := func(x, y kv.Entry) bool {
		return bytes.Equal(x.Key, y.Key) && bytes.Equal(x.Value, y.Value) &&
			x.ValueLen == y.ValueLen && x.Seq == y.Seq && x.Deleted == y.Deleted
	}
	switch {
	case a.Leaf != b.Leaf:
		return "leaf flag"
	case !slices.EqualFunc(leafRecords(a), leafRecords(b), sameEntry):
		return "leaf entries"
	case a.Leaf:
		return ""
	case !slices.EqualFunc(sepBytes(a), sepBytes(b), bytes.Equal):
		return "separators"
	case !slices.Equal(aExts, bExts) || len(a.Children) != len(b.Children):
		return "child extents"
	}
	return ""
}

// sepBytes reads an interior's separators back as bytes of their own.
func sepBytes(n *cowtree.Node) [][]byte {
	out := make([][]byte, n.NumSeps())
	var kb [kv.KeySize]byte
	for i := range out {
		out[i] = bytes.Clone(n.Sep(i, &kb))
	}
	return out
}

// parsedExtents resolves a parsed page's children to the extents its
// image named, in child order (parsed children have no ids yet).
func parsedExtents(exts []cowtree.Extent) func(cowtree.NodeID) cowtree.Extent {
	i := 0
	return func(cowtree.NodeID) cowtree.Extent {
		e := exts[i]
		i++
		return e
	}
}

// narrowKey returns a copy of a node image whose first leaf entry, or
// first separator, is cut to an 8-byte key, zero-padded back to its
// length (an image on the device fills its extent): the image of a
// coherent node holding a key of another width than kv.KeySize, which
// the parser must refuse.
func narrowKey(img []byte, leaf bool) []byte {
	lenAt, keyAt := cowtree.PageHeaderBytes, cowtree.PageHeaderBytes+2
	if leaf {
		keyAt = cowtree.PageHeaderBytes + cowtree.RecordOverhead
	}
	out := slices.Clone(img[:keyAt+8])
	binary.LittleEndian.PutUint16(out[lenAt:], 8)
	return append(append(out, img[keyAt+kv.KeySize:]...), make([]byte, kv.KeySize-8)...)
}

// FuzzPageImage feeds arbitrary bytes to the page image parser
// (cowtree.Node.ParseImage under pageMagic), which must never panic. An
// image it accepts must survive the codec: the image of the parsed page
// parses back to the same page, and imaging that again gives the same
// bytes. The corpus is the leaf and internal images of a small
// content-mode tree, damaged copies of two of them, and a leaf and an
// internal image cut to an 8-byte key, which must be refused.
func FuzzPageImage(f *testing.F) {
	tr, _, _ := testEnv(f, 64, true, func(c *Config) {
		c.LeafPageBytes, c.InternalPageBytes = 512, 256
	})
	keys := oracleKeys(40)
	rng := sim.NewRNG(3)
	var now sim.Duration
	var err error
	for i := 0; i < 600; i++ {
		key := keys[rng.Intn(len(keys))]
		if rng.Intn(6) == 0 {
			now, err = tr.Delete(now, key)
		} else {
			now, err = tr.Put(now, key, bytes.Repeat([]byte{byte(i)}, rng.Intn(24)), 0)
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	var leaves, internals int
	for _, p := range pages(tr) {
		if p.Leaf && leaves < 4 || !p.Leaf && internals < 4 {
			img := tr.AppendImage(nil, p.ID)
			f.Add(img)
			if p.Leaf {
				leaves++
			} else {
				internals++
			}
			if leaves+internals == 1 || leaves+internals == 6 {
				f.Add(img[:len(img)-5])
				bad := slices.Clone(img)
				bad[cowtree.PageHeaderBytes] ^= 0x40 // the first length field
				f.Add(bad)
			}
			if p.Leaf && leaves == 1 || !p.Leaf && internals == 1 {
				narrow := narrowKey(img, p.Leaf)
				if _, _, ok := parsePage(narrow); ok {
					f.Fatalf("an image of page %d (leaf %v) with an 8-byte key parsed", p.ID, p.Leaf)
				}
				f.Add(narrow)
			}
		}
	}
	if leaves == 0 || internals == 0 {
		f.Fatalf("seed tree has %d leaves and %d internal pages", leaves, internals)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, exts, ok := parsePage(data)
		if !ok {
			return
		}
		img := p.AppendImage(nil, pageMagic, parsedExtents(exts))
		got, gotExts, ok := parsePage(img)
		if !ok {
			t.Fatal("the re-serialized image does not parse")
		}
		if diff := samePageImage(p, got, exts, gotExts); diff != "" {
			t.Fatalf("the round trip changed the page's %s", diff)
		}
		if again := got.AppendImage(nil, pageMagic, parsedExtents(gotExts)); !bytes.Equal(again, img) {
			t.Fatal("serializing the re-parsed page gave different bytes")
		}
	})
}

// fuzzTree builds FuzzDescendAll's tree: n keys drawn from seed, from
// a few hundred high words and eight low words, so keys that differ in
// either word sit next to each other. Pages are small, so a few hundred
// keys reach depth 3.
func fuzzTree(tb testing.TB, seed uint64, n int) (*Tree, [][]byte) {
	tr, _, _ := testEnv(tb, 64, false, func(c *Config) {
		c.LeafPageBytes, c.InternalPageBytes = 512, 256
	})
	rng := sim.NewRNG(seed)
	keys := make([][]byte, n)
	var now sim.Duration
	var err error
	for i := range keys {
		k := binary.BigEndian.AppendUint64(nil, rng.Uint64n(400)*0x0101010101)
		keys[i] = binary.BigEndian.AppendUint64(k, rng.Uint64n(8))
		if now, err = tr.Put(now, keys[i], nil, 20); err != nil {
			tb.Fatal(err)
		}
	}
	return tr, keys
}

// FuzzDescendAll holds the lockstep descent (cowtree.Core.DescendAll)
// to the single-key one: over a tree of fuzzed keys, every target of a
// fuzzed batch of up to 64 must reach exactly the leaf descend reaches.
// Each 3-byte group of probes makes one target: its first byte picks
// how (a stored key as it is, with its last byte moved up or down, with
// its high word moved up or its low word cleared; or the two other
// bytes as the words of a key of their own), the other two pick the
// key.
func FuzzDescendAll(f *testing.F) {
	tr, _ := fuzzTree(f, 1, 600)
	if tr.Depth() < 3 {
		f.Fatalf("seed tree: depth %d", tr.Depth())
	}
	f.Add(uint64(1), uint16(600), []byte{0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 1, 0})
	f.Add(uint64(2), uint16(690), bytes.Repeat([]byte{0, 1, 7, 1, 9, 2, 2, 3, 3}, 22))
	f.Add(uint64(3), uint16(300), []byte{3, 1, 1, 4, 2, 2, 5, 3, 3})
	f.Add(uint64(4), uint16(50), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, probes []byte) {
		tr, keys := fuzzTree(t, seed, 1+int(n)%700)
		var ts []kv.Target
		for i := 0; i+3 <= len(probes) && len(ts) < 64; i += 3 {
			k := bytes.Clone(keys[int(binary.BigEndian.Uint16(probes[i+1:]))%len(keys)])
			switch probes[i] % 6 {
			case 1:
				k[kv.KeySize-1]++
			case 2:
				k[kv.KeySize-1]--
			case 3:
				k[7]++
			case 4:
				clear(k[8:])
			case 5:
				k = binary.BigEndian.AppendUint64(nil, uint64(probes[i+1])*0x0101010101)
				k = binary.BigEndian.AppendUint64(k, uint64(probes[i+2]%9))
			}
			ts = append(ts, kv.NewTarget(k))
		}
		leaves := make([]*cowtree.Node, len(ts))
		tr.DescendAll(ts, leaves)
		for i, target := range ts {
			if want := tr.descend(target); leaves[i] != want {
				t.Fatalf("target %d (%x) of %d: DescendAll reached page %d, descend page %d", i, target.Key, len(ts), leaves[i].ID, want.ID)
			}
		}
	})
}
