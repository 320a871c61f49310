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

// FuzzPageImage feeds arbitrary bytes to the page image parser
// (cowtree.Node.ParseImage under pageMagic), which must never panic. An
// image it accepts must survive the codec: the image of the parsed page
// parses back to the same page, and imaging that again gives the same
// bytes. The corpus is the leaf and internal
// images of a small content-mode tree holding 8-, 16- and 24-byte keys,
// plus damaged copies of two of them.
func FuzzPageImage(f *testing.F) {
	tr, _, _ := testEnv(f, 64, true, func(c *Config) {
		c.LeafPageBytes, c.InternalPageBytes = 512, 256
	})
	keys := widthKeys(40)
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

// fuzzTree builds FuzzDescendAll's tree: n keys drawn from seed, each
// 8, 16 or 24 bytes wide as widths allows (bit 0, 1, 2; none set means
// 16 only), so with more than one width some internal pages hold
// separators of other widths than kv.KeySize and search their bytes.
// The keys come from a few hundred prefixes, and a 24-byte key extends
// a 16-byte one, so widths interleave and sit next to their prefixes.
// Pages are small, so a few hundred keys reach depth 3.
func fuzzTree(tb testing.TB, seed uint64, n int, widths uint8) (*Tree, [][]byte) {
	tr, _, _ := testEnv(tb, 64, false, func(c *Config) {
		c.LeafPageBytes, c.InternalPageBytes = 512, 256
	})
	var allowed []int
	for bit, w := range []int{8, kv.KeySize, 24} {
		if widths&(1<<bit) != 0 {
			allowed = append(allowed, w)
		}
	}
	if len(allowed) == 0 {
		allowed = []int{kv.KeySize}
	}
	rng := sim.NewRNG(seed)
	keys := make([][]byte, n)
	var now sim.Duration
	var err error
	for i := range keys {
		k := binary.BigEndian.AppendUint64(nil, rng.Uint64n(400)*0x0101010101)
		k = binary.BigEndian.AppendUint64(k, rng.Uint64n(8))
		k = binary.BigEndian.AppendUint64(k, rng.Uint64n(4))
		keys[i] = k[:allowed[rng.Intn(len(allowed))]]
		if now, err = tr.Put(now, keys[i], nil, 20); err != nil {
			tb.Fatal(err)
		}
	}
	return tr, keys
}

// FuzzDescendAll holds the lockstep descent (cowtree.Core.DescendAll)
// to the single-key one: over a tree of fuzzed keys of mixed widths,
// every target of a fuzzed batch of up to 64 must reach exactly the
// leaf descend reaches. Each 3-byte group of probes makes one target:
// its first byte picks how (a stored key as it is, or with its last
// byte moved up or down, cut to 8 bytes or grown to 24; or the two
// other bytes as a key of their own), the other two pick the key.
func FuzzDescendAll(f *testing.F) {
	tr, _ := fuzzTree(f, 1, 600, 7)
	mixed := false
	for _, p := range pages(tr) {
		if p.Leaf {
			continue
		}
		for _, sep := range sepBytes(p) {
			mixed = mixed || len(sep) != kv.KeySize
		}
	}
	if !mixed || tr.Depth() < 3 {
		f.Fatalf("seed tree: depth %d, separators of mixed widths %v", tr.Depth(), mixed)
	}
	f.Add(uint64(1), uint16(600), uint8(7), []byte{0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 4, 4, 0, 5, 5, 1, 0})
	f.Add(uint64(2), uint16(690), uint8(2), bytes.Repeat([]byte{0, 1, 7, 1, 9, 2, 2, 3, 3}, 22))
	f.Add(uint64(3), uint16(300), uint8(5), []byte{3, 1, 1, 4, 2, 2, 5, 3, 3})
	f.Add(uint64(4), uint16(50), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, widths uint8, probes []byte) {
		tr, keys := fuzzTree(t, seed, 1+int(n)%700, widths)
		var ts []kv.Target
		for i := 0; i+3 <= len(probes) && len(ts) < 64; i += 3 {
			k := bytes.Clone(keys[int(binary.BigEndian.Uint16(probes[i+1:]))%len(keys)])
			switch probes[i] % 6 {
			case 1:
				k[len(k)-1]++
			case 2:
				k[len(k)-1]--
			case 3:
				k = k[:8]
			case 4:
				k = append(k, make([]byte, 24-len(k))...)
			case 5:
				k = probes[i+1 : i+3]
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
