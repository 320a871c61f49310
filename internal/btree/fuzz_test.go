package btree

import (
	"bytes"
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
	case !slices.EqualFunc(a.Seps, b.Seps, bytes.Equal):
		return "separators"
	case !slices.Equal(aExts, bExts) || len(a.Children) != len(b.Children):
		return "child extents"
	}
	return ""
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
