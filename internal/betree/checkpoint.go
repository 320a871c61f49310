package betree

import (
	"encoding/binary"

	"ptsbench/internal/cowtree"
)

// The checkpoint discipline, the copy-on-write node write and the node
// image (see cowtree.Node.AppendImage) live in internal/cowtree. What
// makes the Bε-tree's checkpoints distinctive is purely a codec property
// kept here: interior images carry their message buffers, which is what
// makes buffered-but-unflushed updates durable.

// nodeMagic marks a serialized Bε-tree node ("BEPG").
const nodeMagic = 0x42455047

// serializeNode appends the on-disk image of a node (content mode) to
// out and returns it: the shared node image under nodeMagic, and for an
// interior the buffered messages after the pivot section (the child
// buffers in child order, which is key order), counted by the header's
// bufCount at byte 12. resolve maps a child nodeID to its current
// on-disk extent.
func serializeNode(out []byte, n *node, resolve func(nodeID) fileExtent) []byte {
	base := len(out)
	out = n.AppendImage(out, nodeMagic, resolve)
	if n.Leaf {
		return out
	}
	bufCount := 0
	for _, buf := range n.bufs {
		bufCount += len(buf)
		for i := range buf {
			out = cowtree.AppendRecord(out, &buf[i])
		}
	}
	binary.LittleEndian.PutUint32(out[base+12:], uint32(bufCount))
	return out
}

// parseNode reconstructs a node from its serialized image, dealing an
// interior's key-ordered messages out to its child buffers by separator
// and returning its child extents in child order (its children get ids
// as recovery loads them).
func parseNode(data []byte) (*node, []fileExtent, bool) {
	n := &node{}
	exts, off, ok := n.ParseImage(data, nodeMagic)
	if !ok {
		return nil, nil, false
	}
	if n.Leaf {
		return n, nil, true
	}
	count := len(n.Seps)
	bufCount := int(binary.LittleEndian.Uint32(data[12:]))
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
	n.Serialized += n.bufBytes
	return n, exts, true
}
