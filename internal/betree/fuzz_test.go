package betree

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// imageKey returns a message's key as its serialized form spells it.
func imageKey(m *cowtree.Record) []byte {
	img := cowtree.AppendRecord(nil, m)
	return img[cowtree.RecordOverhead : cowtree.RecordOverhead+int(binary.LittleEndian.Uint16(img))]
}

// sameNodeImage reports the first difference between two parsed nodes
// and the child extents parseNode returned with them: kind, leaf entries, separators, child extents and the child buffers
// message by message (key, sequence, tombstone, value length, value
// bytes), with the buffers' byte counts.
func sameNodeImage(a, b *cowtree.Node, aExts, bExts []cowtree.Extent) string {
	sameMsgs := func(x, y []cowtree.Record) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !bytes.Equal(imageKey(&x[i]), imageKey(&y[i])) || x[i].Seq() != y[i].Seq() || x[i].Del() != y[i].Del() ||
				x[i].Vlen() != y[i].Vlen() || !bytes.Equal(x[i].Val(), y[i].Val()) {
				return false
			}
		}
		return true
	}
	switch {
	case a.Leaf != b.Leaf:
		return "leaf flag"
	case !sameMsgs(a.Entries, b.Entries):
		return "leaf entries"
	case a.Leaf:
		return ""
	case !slices.EqualFunc(sepBytes(a), sepBytes(b), bytes.Equal):
		return "separators"
	case !slices.Equal(aExts, bExts) || len(a.Children) != len(b.Children):
		return "child extents"
	case len(a.Buf.Msgs) != len(b.Buf.Msgs) || !slices.Equal(a.Buf.Sizes, b.Buf.Sizes) || a.Buf.Bytes != b.Buf.Bytes:
		return "buffer partition"
	}
	for ci := range a.Buf.Msgs {
		if !sameMsgs(a.Buf.Msgs[ci], b.Buf.Msgs[ci]) {
			return "buffered messages"
		}
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

// parsedExtents resolves a parsed node's children to the extents its
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

// FuzzNodeImage feeds arbitrary bytes to parseNode, which must never
// panic. An image it accepts must survive the codec: AppendImage of
// the parsed node parses back to the same node, and serializing that
// again gives the same bytes. The corpus is the leaf and interior images
// of a small content-mode tree, damaged copies of two of them, and a
// leaf and an interior image cut to an 8-byte key, which must be
// refused.
func FuzzNodeImage(f *testing.F) {
	tr, _, _ := testEnv(f, 64, true, func(c *Config) {
		c.Epsilon, c.NodeBytes, c.LeafPageBytes = 0.5, 4<<10, 512
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
	var leaves, interiors int
	for _, n := range tr.Nodes() {
		if n.Leaf && leaves < 4 || !n.Leaf && interiors < 4 {
			img := tr.AppendImage(nil, n.ID)
			f.Add(img)
			if n.Leaf {
				leaves++
			} else {
				interiors++
			}
			if leaves+interiors == 1 || leaves+interiors == 6 {
				f.Add(img[:len(img)-5])
				bad := slices.Clone(img)
				bad[cowtree.PageHeaderBytes] ^= 0x40 // the first length field
				f.Add(bad)
			}
			if n.Leaf && leaves == 1 || !n.Leaf && interiors == 1 {
				narrow := narrowKey(img, n.Leaf)
				if _, _, ok := parseNode(narrow); ok {
					f.Fatalf("an image of node %d (leaf %v) with an 8-byte key parsed", n.ID, n.Leaf)
				}
				f.Add(narrow)
			}
		}
	}
	if leaves == 0 || interiors == 0 {
		f.Fatalf("seed tree has %d leaves and %d interiors", leaves, interiors)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, exts, ok := parseNode(data)
		if !ok {
			return
		}
		img := n.AppendImage(nil, nodeMagic, parsedExtents(exts))
		got, gotExts, ok := parseNode(img)
		if !ok {
			t.Fatal("the re-serialized image does not parse")
		}
		if diff := sameNodeImage(n, got, exts, gotExts); diff != "" {
			t.Fatalf("the round trip changed the node's %s", diff)
		}
		if again := got.AppendImage(nil, nodeMagic, parsedExtents(gotExts)); !bytes.Equal(again, img) {
			t.Fatal("serializing the re-parsed node gave different bytes")
		}
	})
}
