package btree

import (
	"encoding/binary"

	"ptsbench/internal/cowtree"
)

// The checkpoint discipline and the copy-on-write page write live in
// internal/cowtree. This file keeps only the engine's page codec.

// pageMagic marks a serialized B+Tree page ("BTPG").
const pageMagic = 0x42545047

// serializePage appends the on-disk image of a page (content mode) to
// out and returns it. Layout: header {magic, leaf flag, count}, then
// entries (leaf, in cowtree.AppendRecord's format) or the pivot section
// (internal, cowtree.Pivots.AppendPivots), zero-padded by the caller to
// the extent size. resolve maps a child pageID to its current on-disk
// extent; it may be nil for leaves.
func serializePage(out []byte, p *page, resolve func(pageID) fileExtent) []byte {
	var hdr [cowtree.PageHeaderBytes]byte
	base := len(out)
	out = append(out, hdr[:]...)
	binary.LittleEndian.PutUint32(out[base:], pageMagic)
	if p.Leaf {
		out[base+4] = 1
		binary.LittleEndian.PutUint32(out[base+8:], uint32(len(p.entries)))
		for i := range p.entries {
			out = cowtree.AppendRecord(out, &p.entries[i])
		}
		return out
	}
	binary.LittleEndian.PutUint32(out[base+8:], uint32(len(p.Seps)))
	return p.AppendPivots(out, resolve)
}

// parsePage reconstructs a page from its serialized image, returning an
// internal page's child extents in child order (its children get ids as
// recovery loads them).
func parsePage(data []byte) (*page, []fileExtent, bool) {
	if len(data) < cowtree.PageHeaderBytes {
		return nil, nil, false
	}
	if binary.LittleEndian.Uint32(data[0:]) != pageMagic {
		return nil, nil, false
	}
	p := &page{Node: cowtree.Node{Leaf: data[4] == 1}}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	off := cowtree.PageHeaderBytes
	if p.Leaf {
		for i := 0; i < n; i++ {
			r, used := cowtree.ParseRecord(data[off:])
			if used == 0 {
				return nil, nil, false
			}
			p.entries = append(p.entries, r)
			off += used
		}
		return p, nil, true
	}
	exts, _, ok := p.ParsePivots(data[off:], n)
	if !ok {
		return nil, nil, false
	}
	return p, exts, true
}
