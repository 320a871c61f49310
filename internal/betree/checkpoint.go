package betree

import (
	"bytes"
	"encoding/binary"

	"ptsbench/internal/cowtree"
)

// The checkpoint discipline and the copy-on-write node write live in
// internal/cowtree. What makes the Bε-tree's checkpoints distinctive is
// purely a codec property kept here: interior images carry their message
// buffers, which is what makes buffered-but-unflushed updates durable.

// nodeMagic marks a serialized Bε-tree node ("BEPG").
const nodeMagic = 0x42455047

// serializeNode appends the on-disk image of a node (content mode) to
// out and returns it. Layout: header {magic, leaf flag, count,
// bufCount}, then entries (leaf) or separators + child extent references
// + buffered messages (interior; the child buffers in child order, which
// is key order). resolve maps a child nodeID to its current on-disk
// extent.
func serializeNode(out []byte, n *node, resolve func(nodeID) fileExtent) []byte {
	var hdr [pageHeaderBytes]byte
	base := len(out)
	out = append(out, hdr[:]...)
	binary.LittleEndian.PutUint32(out[base:], nodeMagic)
	if n.Leaf {
		out[base+4] = 1
		binary.LittleEndian.PutUint32(out[base+8:], uint32(len(n.entries)))
		for i := range n.entries {
			out = cowtree.AppendRecord(out, &n.entries[i])
		}
		return out
	}
	binary.LittleEndian.PutUint32(out[base+8:], uint32(len(n.seps)))
	bufCount := 0
	for _, buf := range n.bufs {
		bufCount += len(buf)
	}
	binary.LittleEndian.PutUint32(out[base+12:], uint32(bufCount))
	for _, sep := range n.seps {
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(sep)))
		out = append(out, l[:]...)
		out = append(out, sep...)
	}
	for _, c := range n.Children {
		var ext fileExtent
		if resolve != nil {
			ext = resolve(c)
		}
		var b [childRefBytes]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(ext.Start))
		binary.LittleEndian.PutUint32(b[8:], uint32(ext.Pages))
		out = append(out, b[:]...)
	}
	for _, buf := range n.bufs {
		for i := range buf {
			out = cowtree.AppendRecord(out, &buf[i])
		}
	}
	return out
}

// parseNode reconstructs a node from its serialized image, dealing an
// interior's key-ordered messages out to its child buffers by separator.
func parseNode(data []byte) (*node, bool) {
	if len(data) < pageHeaderBytes {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data[0:]) != nodeMagic {
		return nil, false
	}
	n := &node{Node: cowtree.Node{Leaf: data[4] == 1}}
	count := int(binary.LittleEndian.Uint32(data[8:]))
	off := pageHeaderBytes
	if n.Leaf {
		for i := 0; i < count; i++ {
			m, used := cowtree.ParseRecord(data[off:])
			if used == 0 {
				return nil, false
			}
			n.entries = append(n.entries, m)
			off += used
		}
		return n, true
	}
	bufCount := int(binary.LittleEndian.Uint32(data[12:]))
	for i := 0; i < count; i++ {
		if off+2 > len(data) {
			return nil, false
		}
		sl := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+sl > len(data) {
			return nil, false
		}
		n.seps = append(n.seps, bytes.Clone(data[off:off+sl]))
		off += sl
	}
	for i := 0; i <= count; i++ {
		if off+childRefBytes > len(data) {
			return nil, false
		}
		n.childExtents = append(n.childExtents, fileExtent{
			Start: int64(binary.LittleEndian.Uint64(data[off:])),
			Pages: int64(binary.LittleEndian.Uint32(data[off+8:])),
		})
		n.Children = append(n.Children, nilNode) // assigned during rebuild
		off += childRefBytes
	}
	n.bufs, n.bufSizes = make([][]cowtree.Record, count+1), make([]int, count+1)
	for i, ci := 0, 0; i < bufCount; i++ {
		m, used := cowtree.ParseRecord(data[off:])
		if used == 0 {
			return nil, false
		}
		// childFor's rule: a key equal to a separator routes right.
		for ci < count && m.CompareKey(n.seps[ci]) >= 0 {
			ci++
		}
		n.bufs[ci] = append(n.bufs[ci], m)
		n.bufSizes[ci] += m.Size()
		n.bufBytes += m.Size()
		off += used
	}
	return n, true
}
