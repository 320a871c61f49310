package btree

import (
	"bytes"
	"encoding/binary"

	"ptsbench/internal/cowtree"
)

// The checkpoint discipline and the copy-on-write page write live in
// internal/cowtree. This file keeps only the engine's page codec.

// serializePage appends the on-disk image of a page (content mode) to
// out and returns it. Layout: header {magic, leaf flag, count}, then
// entries (leaf, in cowtree.AppendRecord's format) or separators +
// child extent references (internal), zero-padded by the caller to the
// extent size. resolve maps a child pageID to its current on-disk
// extent; it may be nil for leaves.
func serializePage(out []byte, p *page, resolve func(pageID) fileExtent) []byte {
	var hdr [pageHeaderBytes]byte
	base := len(out)
	out = append(out, hdr[:]...)
	binary.LittleEndian.PutUint32(out[base:], 0x42545047) // "BTPG"
	if p.Leaf {
		out[base+4] = 1
		binary.LittleEndian.PutUint32(out[base+8:], uint32(len(p.entries)))
		for i := range p.entries {
			out = cowtree.AppendRecord(out, &p.entries[i])
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
			r, used := cowtree.ParseRecord(data[off:])
			if used == 0 {
				return nil, false
			}
			p.entries = append(p.entries, r)
			off += used
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
		p.seps = append(p.seps, bytes.Clone(data[off:off+sl]))
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
