package cowtree

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ptsbench/internal/kv"
)

// Buffers are a Bε-tree interior node's message buffers (Interior.Buf):
// one key-sorted array per child, sized to what it holds, holding
// exactly the messages ChildFor routes to that child, one per key (a
// newer update overwrites the buffered older one: the upsert collapse).
// A message is the Record it becomes in a leaf; flushes move it
// unchanged. The node's Serialized is PivotBytes() + Bytes.
type Buffers struct {
	// Msgs[ci] holds the messages bound for Children[ci]; Sizes[ci] is
	// their serialized footprint and Bytes the sum over the children.
	Msgs  [][]Record
	Sizes []int
	Bytes int
}

// NewBuffers gives interior n empty buffers, one per child (a Bε-tree's
// new root; SplitInterior gives a split's new half its share).
func (c *Core) NewBuffers(n *Node) {
	n.Buf.Msgs, n.Buf.Sizes = make([][]Record, len(n.Children)), make([]int, len(n.Children))
}

// Get returns the message child ci's buffer holds for t, or nil; ci is
// ChildFor(t), which the descent needs anyway.
func (b *Buffers) Get(ci int, t kv.Target) *Record { return FindRecord(b.Msgs[ci], t) }

// Busiest returns the child whose buffer holds the most bytes — the
// first of them on a tie — and that byte count (0: nothing buffered).
func (b *Buffers) Busiest() (ci, size int) {
	for i, s := range b.Sizes {
		if s > size {
			ci, size = i, s
		}
	}
	return ci, size
}

// InsertMessage upserts a message into interior n's buffer of the child
// covering its key, returning the serialized size delta. owned says the
// message owns its bytes (a flush moving it down); with owned=false —
// the Put boundary, where key and val are the caller's reused buffers
// beside the message — only the bytes actually retained are copied (see
// InsertRecord), so an accounting-mode overwrite costs no copy at all.
func (c *Core) InsertMessage(n *Node, m Record, key, val []byte, owned bool) int {
	var t kv.Target
	var kb [kv.KeySize]byte
	arena := &c.arena
	if owned {
		t, arena = m.Target(&kb), nil
	} else {
		t = kv.NewTarget(key)
	}
	b := &n.Buf
	ci := n.ChildFor(t)
	var delta int
	b.Msgs[ci], delta = InsertRecord(&c.records, arena, b.Msgs[ci], m, t, val)
	b.Sizes[ci] += delta
	b.Bytes += delta
	n.Serialized += delta
	return delta
}

// DropBuffer empties child ci's buffer of interior n once a flush has
// moved its messages down, retiring the array.
func (c *Core) DropBuffer(n *Node, ci int) {
	b := &n.Buf
	c.records.Put(b.Msgs[ci])
	b.Bytes -= b.Sizes[ci]
	n.Serialized -= b.Sizes[ci]
	b.Msgs[ci], b.Sizes[ci] = nil, 0
}

// cutBuffer splits child idx's buffer at sep after child idx has split
// there (see LinkChild): messages with key >= sep now route to the new
// child idx+1. (Every split the Bε-tree performs follows a flush that
// has just emptied that buffer, so today the cut moves nothing; it keeps
// the partition right without leaning on that.)
func (c *Core) cutBuffer(b *Buffers, idx int, sep []byte) {
	buf := b.Msgs[idx]
	tail := c.records.CloneTail(buf, SearchRecords(buf, kv.NewTarget(sep)))
	moved := 0
	for i := range tail {
		moved += tail[i].Size()
	}
	b.Msgs[idx] = c.records.Fit(buf[:len(buf)-len(tail)])
	b.Msgs = slices.Insert(b.Msgs, idx+1, tail)
	b.Sizes[idx] -= moved
	b.Sizes = slices.Insert(b.Sizes, idx+1, moved)
}

// splitAt moves the buffers of children cut and up, whole, into right
// (empty): the buffer half of SplitInterior.
func (b *Buffers) splitAt(cut int, right *Buffers) {
	right.Msgs = append([][]Record(nil), b.Msgs[cut:]...)
	right.Sizes = append([]int(nil), b.Sizes[cut:]...)
	for _, s := range right.Sizes {
		right.Bytes += s
	}
	b.Bytes -= right.Bytes
	b.Msgs, b.Sizes = b.Msgs[:cut], b.Sizes[:cut]
}

// count returns the number of buffered messages, which the image header
// keeps at byte 12.
func (b *Buffers) count() int {
	n := 0
	for _, buf := range b.Msgs {
		n += len(buf)
	}
	return n
}

// appendMsgs appends the buffered messages to an interior image after
// its pivot section: the child buffers in child order, which is key
// order, one AppendRecord each.
func (b *Buffers) appendMsgs(out []byte) []byte {
	for _, buf := range b.Msgs {
		for i := range buf {
			out = AppendRecord(out, &buf[i])
		}
	}
	return out
}

// ParseBuffers gives interior n, which ParseImage has just filled from
// data, the buffers its image carries from off on: the header's count
// (byte 12) of key-ordered messages, dealt out to the child buffers by
// separator, their bytes added to Serialized. ok is false for a short or
// corrupt image.
func (n *Node) ParseBuffers(data []byte, off int) bool {
	count, msgs := n.NumSeps(), int(binary.LittleEndian.Uint32(data[12:]))
	b := &n.Buf
	b.Msgs, b.Sizes = make([][]Record, count+1), make([]int, count+1)
	for i, ci := 0, 0; i < msgs; i++ {
		m, used := ParseRecord(data[off:])
		if used == 0 {
			return false
		}
		// ChildFor's rule: a key equal to a separator routes right.
		var kb [kv.KeySize]byte
		for t := m.Target(&kb); ci < count && sepAbove(n.words[ci], t) == 0; {
			ci++
		}
		b.Msgs[ci] = append(b.Msgs[ci], m)
		b.Sizes[ci] += m.Size()
		b.Bytes += m.Size()
		off += used
	}
	n.Serialized += b.Bytes
	return true
}

// checkBuffers audits interior n's buffers, if it has any, for
// Core.Check: one buffer and size per child (and one child more than
// separators), each strictly sorted and routed by ChildFor, the sizes,
// their total and Serialized exact.
func (n *Node) checkBuffers() error {
	b := &n.Buf
	switch {
	case !n.buffered():
		return nil
	case len(b.Msgs) != len(n.Children) || len(b.Sizes) != len(n.Children) || n.NumSeps()+1 != len(n.Children):
		return fmt.Errorf("node %d: %d buffers, %d sizes and %d separators for %d children", n.ID, len(b.Msgs), len(b.Sizes), n.NumSeps(), len(n.Children))
	}
	total := 0
	var kb [kv.KeySize]byte
	for ci, buf := range b.Msgs {
		size := 0
		for i := range buf {
			if i > 0 && CompareRecords(&buf[i-1], &buf[i]) >= 0 {
				return fmt.Errorf("node %d: buffer %d not strictly sorted at message %d", n.ID, ci, i)
			}
			if got := n.ChildFor(buf[i].Target(&kb)); got != ci {
				return fmt.Errorf("node %d: buffer %d holds a message for child %d", n.ID, ci, got)
			}
			size += buf[i].Size()
		}
		if size != b.Sizes[ci] {
			return fmt.Errorf("node %d: buffer %d holds %d bytes, its size says %d", n.ID, ci, size, b.Sizes[ci])
		}
		total += size
	}
	if total != b.Bytes {
		return fmt.Errorf("node %d: buffers hold %d bytes, Bytes says %d", n.ID, total, b.Bytes)
	}
	if want := n.PivotBytes() + b.Bytes; n.Serialized != want {
		return fmt.Errorf("node %d: serialized %d, pivots and buffers %d", n.ID, n.Serialized, want)
	}
	return nil
}
