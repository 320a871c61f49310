package betree

import (
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
// bufCount}, then entries (leaf) or the pivot section
// (cowtree.Pivots.AppendPivots) + buffered messages (interior; the child
// buffers in child order, which is key order). resolve maps a child
// nodeID to its current on-disk extent.
func serializeNode(out []byte, n *node, resolve func(nodeID) fileExtent) []byte {
	var hdr [cowtree.PageHeaderBytes]byte
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
	binary.LittleEndian.PutUint32(out[base+8:], uint32(len(n.Seps)))
	bufCount := 0
	for _, buf := range n.bufs {
		bufCount += len(buf)
	}
	binary.LittleEndian.PutUint32(out[base+12:], uint32(bufCount))
	out = n.AppendPivots(out, resolve)
	for _, buf := range n.bufs {
		for i := range buf {
			out = cowtree.AppendRecord(out, &buf[i])
		}
	}
	return out
}

// parseNode reconstructs a node from its serialized image, dealing an
// interior's key-ordered messages out to its child buffers by separator
// and returning its child extents in child order (its children get ids
// as recovery loads them).
func parseNode(data []byte) (*node, []fileExtent, bool) {
	if len(data) < cowtree.PageHeaderBytes {
		return nil, nil, false
	}
	if binary.LittleEndian.Uint32(data[0:]) != nodeMagic {
		return nil, nil, false
	}
	n := &node{Node: cowtree.Node{Leaf: data[4] == 1}}
	count := int(binary.LittleEndian.Uint32(data[8:]))
	off := cowtree.PageHeaderBytes
	if n.Leaf {
		for i := 0; i < count; i++ {
			m, used := cowtree.ParseRecord(data[off:])
			if used == 0 {
				return nil, nil, false
			}
			n.entries = append(n.entries, m)
			off += used
		}
		return n, nil, true
	}
	bufCount := int(binary.LittleEndian.Uint32(data[12:]))
	exts, used, ok := n.ParsePivots(data[off:], count)
	if !ok {
		return nil, nil, false
	}
	off += used
	n.bufs, n.bufSizes = make([][]cowtree.Record, count+1), make([]int, count+1)
	for i, ci := 0, 0; i < bufCount; i++ {
		m, used := cowtree.ParseRecord(data[off:])
		if used == 0 {
			return nil, nil, false
		}
		// ChildFor's rule: a key equal to a separator routes right.
		for ci < count && m.CompareKey(n.Seps[ci]) >= 0 {
			ci++
		}
		n.bufs[ci] = append(n.bufs[ci], m)
		n.bufSizes[ci] += m.Size()
		n.bufBytes += m.Size()
		off += used
	}
	return n, exts, true
}
