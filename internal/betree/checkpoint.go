package betree

import (
	"encoding/binary"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/kv"
)

// The checkpoint discipline and the copy-on-write node write live in
// internal/cowtree. What makes the Bε-tree's checkpoints distinctive is
// purely a codec property kept here: interior images carry their message
// buffers, which is what makes buffered-but-unflushed updates durable.

// nodeMagic marks a serialized Bε-tree node ("BEPG").
const nodeMagic = 0x42455047

// putMessage appends one serialized message (buffer message or leaf
// entry): keyLen(2) + valueLen(4) + seq(8, tombstone bit 63) + key +
// value (zeros in accounting mode).
func putMessage(out []byte, m *message) []byte {
	var hdr [msgOverhead]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(len(m.key)))
	vl := int(m.vlen)
	binary.LittleEndian.PutUint32(hdr[2:], uint32(vl))
	seq := m.seq
	if m.del {
		seq |= 1 << 63
	}
	binary.LittleEndian.PutUint64(hdr[6:], seq)
	out = append(out, hdr[:]...)
	out = append(out, m.key...)
	if val := m.val(); val != nil {
		out = append(out, val...)
	} else {
		out = cowtree.AppendZeros(out, vl)
	}
	return out
}

// parseMessage decodes one owned message (key and value bytes in one
// allocation), returning it and the bytes consumed (0 on corruption).
func parseMessage(data []byte) (message, int) {
	if len(data) < msgOverhead {
		return message{}, 0
	}
	kl := int(binary.LittleEndian.Uint16(data[0:]))
	vl := int(binary.LittleEndian.Uint32(data[2:]))
	seq := binary.LittleEndian.Uint64(data[6:])
	if msgOverhead+kl+vl > len(data) {
		return message{}, 0
	}
	m := makeMessage(cloneBytes(data[msgOverhead : msgOverhead+kl+vl])[:kl],
		seq&^(1<<63), vl, seq&(1<<63) != 0)
	return m, msgOverhead + kl + vl
}

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
			out = putMessage(out, &n.entries[i])
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
			out = putMessage(out, &buf[i])
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
			m, used := parseMessage(data[off:])
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
		n.seps = append(n.seps, cloneBytes(data[off:off+sl]))
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
	n.bufs, n.bufSizes = make([][]message, count+1), make([]int, count+1)
	for i, ci := 0, 0; i < bufCount; i++ {
		m, used := parseMessage(data[off:])
		if used == 0 {
			return nil, false
		}
		// childFor's rule: a key equal to a separator routes right.
		for ci < count && kv.CompareKeys(n.seps[ci], m.key) <= 0 {
			ci++
		}
		n.bufs[ci] = append(n.bufs[ci], m)
		n.bufSizes[ci] += m.bytes()
		n.bufBytes += m.bytes()
		off += used
	}
	return n, true
}
