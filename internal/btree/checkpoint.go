package btree

import (
	"encoding/binary"

	"ptsbench/internal/cowtree"
)

// The checkpoint discipline and the copy-on-write page write live in
// internal/cowtree. This file keeps only the engine's page codec.

// serializePage appends the on-disk image of a page (content mode) to
// out and returns it. Layout: header {magic, leaf flag, count}, then
// entries (leaf) or separators + child extent references (internal),
// zero-padded by the caller to the extent size. resolve maps a child
// pageID to its current on-disk extent; it may be nil for leaves.
func serializePage(out []byte, p *page, resolve func(pageID) fileExtent) []byte {
	var hdr [pageHeaderBytes]byte
	base := len(out)
	out = append(out, hdr[:]...)
	binary.LittleEndian.PutUint32(out[base:], 0x42545047) // "BTPG"
	if p.Leaf {
		out[base+4] = 1
	}
	if p.Leaf {
		binary.LittleEndian.PutUint32(out[base+8:], uint32(len(p.entries)))
		for i := range p.entries {
			e := &p.entries[i]
			var eh [entryOverhead]byte
			binary.LittleEndian.PutUint16(eh[0:], uint16(len(e.key)))
			vl := int(e.vlen)
			binary.LittleEndian.PutUint32(eh[2:], uint32(vl))
			seq := e.seq
			if e.del {
				seq |= 1 << 63 // tombstone bit
			}
			binary.LittleEndian.PutUint64(eh[6:], seq)
			out = append(out, eh[:]...)
			out = append(out, e.key...)
			if e.val != nil {
				out = append(out, e.val...)
			} else {
				out = cowtree.AppendZeros(out, vl)
			}
		}
		return out
	}
	binary.LittleEndian.PutUint32(out[base+8:], uint32(len(p.seps)))
	for _, sep := range p.seps {
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(sep)))
		out = append(out, l[:]...)
		out = append(out, sep...)
	}
	for _, c := range p.Children {
		var ext fileExtent
		if resolve != nil {
			ext = resolve(c)
		}
		var b [childRefBytes]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(ext.Start))
		binary.LittleEndian.PutUint32(b[8:], uint32(ext.Pages))
		out = append(out, b[:]...)
	}
	return out
}

// parsePage reconstructs a page from its serialized image (tests verify
// the round trip; the hot path keeps structures in memory).
func parsePage(data []byte) (*page, bool) {
	if len(data) < pageHeaderBytes {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data[0:]) != 0x42545047 {
		return nil, false
	}
	p := &page{Node: cowtree.Node{Leaf: data[4] == 1}}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	off := pageHeaderBytes
	if p.Leaf {
		for i := 0; i < n; i++ {
			if off+entryOverhead > len(data) {
				return nil, false
			}
			kl := int(binary.LittleEndian.Uint16(data[off:]))
			vl := int(binary.LittleEndian.Uint32(data[off+2:]))
			seq := binary.LittleEndian.Uint64(data[off+6:])
			del := seq&(1<<63) != 0
			seq &^= 1 << 63
			off += entryOverhead
			if off+kl+vl > len(data) {
				return nil, false
			}
			p.entries = append(p.entries, makeEntry(
				cloneBytes(data[off:off+kl]),
				cloneBytes(data[off+kl:off+kl+vl]),
				seq, vl, del))
			off += kl + vl
		}
		return p, true
	}
	for i := 0; i < n; i++ {
		if off+2 > len(data) {
			return nil, false
		}
		sl := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+sl > len(data) {
			return nil, false
		}
		p.seps = append(p.seps, cloneBytes(data[off:off+sl]))
		off += sl
	}
	for i := 0; i <= n; i++ {
		if off+childRefBytes > len(data) {
			return nil, false
		}
		p.childExtents = append(p.childExtents, fileExtent{
			Start: int64(binary.LittleEndian.Uint64(data[off:])),
			Pages: int64(binary.LittleEndian.Uint32(data[off+8:])),
		})
		p.Children = append(p.Children, nilPage) // assigned during rebuild
		off += childRefBytes
	}
	return p, true
}
