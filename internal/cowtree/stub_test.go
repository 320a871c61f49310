package cowtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/extalloc"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// This file implements stubTree, a deliberately tiny copy-on-write tree
// engine over the Core — fixed fanout, uint64 keys, no buffers —
// exercised by the engine-agnostic regression tests in
// checkpoint_test.go. It is also the reference answer to "what must an
// engine implement": the four Engine/RecoveryEngine methods below plus a
// node codec and an insert path are the entire integration surface.

const (
	stubLeafMax   = 8          // entries per leaf before a split
	stubFanoutMax = 4          // children per interior node before a split
	stubMagic     = 0x53545542 // "STUB"
	stubMetaMagic = 0x53544d54 // "STMT"
)

type stubNode struct {
	Node

	// Leaf payload, sorted by key.
	keys []uint64
	vals [][]byte
	seqs []uint64

	// Interior payload: Children[i] covers keys < seps[i].
	seps []uint64

	childExtents []Extent // recovery only
}

type stubTree struct {
	core  Core
	nodes []*stubNode // parallel to the core's header table
	seq   uint64
}

// stubEnv mounts a content-enabled simulated device.
func stubEnv() (*extfs.FS, error) {
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  32 << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		Profile: flash.Profile{
			Name:       "stub",
			ReadFixed:  5 * time.Microsecond,
			WriteFixed: 5 * time.Microsecond,
			ReadBW:     2 << 30,
			WriteBW:    1 << 30,
			HardwareOP: 0.25,
			EraseTime:  200 * time.Microsecond,
		},
	})
	if err != nil {
		return nil, err
	}
	dev := blockdev.New(ssd)
	dev.EnableContentStore()
	return extfs.Mount(dev, extfs.Options{})
}

func stubConfig(interval time.Duration, chunkPages int) Config {
	return Config{
		Name:                   "stub",
		MetaPrefix:             "stmeta",
		MetaMagic:              stubMetaMagic,
		JournalPrefix:          "sjournal-",
		ChunkPages:             chunkPages,
		CheckpointInterval:     interval,
		CheckpointPendingBytes: 1 << 30, // interval-driven only
		CacheBytes:             1 << 30, // nothing evicted unless a test shrinks it
		Content:                true,
	}
}

func newStub(fs *extfs.FS, f *extfs.File, cfg Config) *stubTree {
	t := &stubTree{nodes: make([]*stubNode, 1, 16)} // index 0 is NilNode
	t.core.Init(t, fs, f, extalloc.New(f, 64), cfg)
	return t
}

func openStub(fs *extfs.FS, cfg Config) (*stubTree, error) {
	f, err := fs.Create("collection.stub")
	if err != nil {
		return nil, err
	}
	t := newStub(fs, f, cfg)
	root := t.newNode(true)
	t.core.SetRoot(root.ID)
	t.core.Admit(&root.Node)
	if err := t.core.StartJournal(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *stubTree) newNode(leaf bool) *stubNode {
	n := &stubNode{Node: Node{Leaf: leaf}}
	n.Serialized = n.size()
	t.register(n)
	t.core.MarkDirty(&n.Node)
	return n
}

func (t *stubTree) register(n *stubNode) {
	t.core.Register(&n.Node)
	t.nodes = append(t.nodes, n)
}

func (t *stubTree) root() *stubNode { return t.nodes[t.core.Root()] }

// resized brings a node's Serialized (and, for a resident leaf, the
// cache's byte count) up to date after its payload changed.
func (t *stubTree) resized(n *stubNode) {
	delta := n.size() - n.Serialized
	n.Serialized += delta
	if n.Resident {
		t.core.Resize(delta)
	}
}

// ---- Engine implementation ----

func (t *stubTree) AppendImage(dst []byte, id NodeID) []byte {
	return serializeStub(dst, t.nodes[id], func(c NodeID) Extent { return t.nodes[c].Disk })
}

func (t *stubTree) Seq() uint64 { return t.seq }

// ---- RecoveryEngine implementation ----

func (t *stubTree) MaterializeNode(data []byte) (*Node, []Extent, error) {
	n, ok := parseStub(data)
	if !ok {
		return nil, nil, errors.New("stub: corrupt node")
	}
	n.Serialized = n.size()
	t.register(n)
	exts := n.childExtents
	n.childExtents = nil
	return &n.Node, exts, nil
}

func (t *stubTree) ApplyRecovered(now sim.Duration, r *wal.Record) (sim.Duration, error) {
	if r.Seq > t.seq {
		t.seq = r.Seq
	}
	key := binary.BigEndian.Uint64(r.Key)
	leaf := t.descend(key)
	i := leafSearch(leaf, key)
	if i < len(leaf.keys) && leaf.keys[i] == key && leaf.seqs[i] >= r.Seq {
		return now, nil // on-disk state is as new or newer
	}
	t.insertLeaf(leaf, key, append([]byte(nil), r.Value...), r.Seq)
	return now, nil
}

// ---- tree operations ----

func (t *stubTree) descend(key uint64) *stubNode {
	n := t.root()
	for !n.Leaf {
		i := 0
		for i < len(n.seps) && key >= n.seps[i] {
			i++
		}
		n = t.nodes[n.Children[i]]
	}
	return n
}

func leafSearch(n *stubNode, key uint64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (t *stubTree) insertLeaf(leaf *stubNode, key uint64, val []byte, seq uint64) {
	i := leafSearch(leaf, key)
	if i < len(leaf.keys) && leaf.keys[i] == key {
		leaf.vals[i] = val
		leaf.seqs[i] = seq
	} else {
		leaf.keys = append(leaf.keys, 0)
		copy(leaf.keys[i+1:], leaf.keys[i:])
		leaf.keys[i] = key
		leaf.vals = append(leaf.vals, nil)
		copy(leaf.vals[i+1:], leaf.vals[i:])
		leaf.vals[i] = val
		leaf.seqs = append(leaf.seqs, 0)
		copy(leaf.seqs[i+1:], leaf.seqs[i:])
		leaf.seqs[i] = seq
	}
	t.resized(leaf)
	t.core.MarkDirty(&leaf.Node)
	if len(leaf.keys) > stubLeafMax {
		t.splitLeaf(leaf)
	}
}

func (t *stubTree) put(now sim.Duration, key uint64, val []byte) (sim.Duration, error) {
	if err := t.core.Err(); err != nil {
		return now, err
	}
	t.core.Pump(now)
	now += time.Microsecond
	t.seq++
	leaf := t.descend(key)
	var err error
	if now, err = t.core.Load(now, &leaf.Node); err != nil {
		return now, err
	}
	t.insertLeaf(leaf, key, val, t.seq)
	if w := t.core.Journal(); w != nil {
		var kb [8]byte
		binary.BigEndian.PutUint64(kb[:], key)
		rec := wal.Record{Seq: t.seq, Key: kb[:], Value: val, ValueLen: len(val)}
		now, err = w.Append(now, &rec, true)
		if err != nil {
			return now, err
		}
	}
	if now, err = t.core.EvictToFit(now); err != nil {
		return now, err
	}
	t.core.MaybeCheckpoint(now)
	return now, nil
}

func (t *stubTree) get(key uint64) ([]byte, bool) {
	leaf := t.descend(key)
	i := leafSearch(leaf, key)
	if i < len(leaf.keys) && leaf.keys[i] == key {
		return leaf.vals[i], true
	}
	return nil, false
}

func (t *stubTree) splitLeaf(leaf *stubNode) {
	mid := len(leaf.keys) / 2
	right := t.newNode(true)
	right.Parent = leaf.Parent
	right.keys = append(right.keys, leaf.keys[mid:]...)
	right.vals = append(right.vals, leaf.vals[mid:]...)
	right.seqs = append(right.seqs, leaf.seqs[mid:]...)
	leaf.keys = leaf.keys[:mid]
	leaf.vals = leaf.vals[:mid]
	leaf.seqs = leaf.seqs[:mid]
	right.Next = leaf.Next
	leaf.Next = right.ID
	t.resized(leaf)
	t.resized(right)
	if leaf.Resident {
		t.core.Admit(&right.Node)
	}
	t.core.MarkDirty(&leaf.Node)
	t.insertIntoParent(leaf, right.keys[0], right)
}

func (t *stubTree) insertIntoParent(left *stubNode, sep uint64, right *stubNode) {
	if left.ID == t.core.Root() {
		newRoot := t.newNode(false)
		newRoot.seps = []uint64{sep}
		newRoot.Children = []NodeID{left.ID, right.ID}
		t.resized(newRoot)
		left.Parent = newRoot.ID
		right.Parent = newRoot.ID
		t.core.SetRoot(newRoot.ID)
		return
	}
	parent := t.nodes[left.Parent]
	idx := 0
	for idx < len(parent.Children) && parent.Children[idx] != left.ID {
		idx++
	}
	parent.seps = append(parent.seps, 0)
	copy(parent.seps[idx+1:], parent.seps[idx:])
	parent.seps[idx] = sep
	parent.Children = append(parent.Children, NilNode)
	copy(parent.Children[idx+2:], parent.Children[idx+1:])
	parent.Children[idx+1] = right.ID
	right.Parent = parent.ID
	t.resized(parent)
	t.core.MarkDirty(&parent.Node)
	if len(parent.Children) > stubFanoutMax {
		t.splitInterior(parent)
	}
}

func (t *stubTree) splitInterior(n *stubNode) {
	mid := len(n.seps) / 2
	promoted := n.seps[mid]
	right := t.newNode(false)
	right.Parent = n.Parent
	right.seps = append(right.seps, n.seps[mid+1:]...)
	right.Children = append(right.Children, n.Children[mid+1:]...)
	n.seps = n.seps[:mid]
	n.Children = n.Children[:mid+1]
	for _, c := range right.Children {
		t.nodes[c].Parent = right.ID
	}
	t.resized(n)
	t.resized(right)
	t.core.MarkDirty(&n.Node)
	t.insertIntoParent(n, promoted, right)
}

func (t *stubTree) flushAll(now sim.Duration) (sim.Duration, error) {
	return t.core.Checkpoint(now)
}

// recoverStub reopens a stub tree from its on-device state, mirroring
// the engines' Recover entry points step by step.
func recoverStub(fs *extfs.FS, cfg Config, now sim.Duration) (*stubTree, sim.Duration, error) {
	st, now, err := ReadMeta(fs, cfg.MetaPrefix, cfg.MetaMagic, cfg.Name, now)
	if err != nil {
		return nil, now, err
	}
	if st == nil {
		return nil, now, fmt.Errorf("stub: no valid checkpoint metadata")
	}
	f, err := fs.Open("collection.stub")
	if err != nil {
		return nil, now, err
	}
	t := newStub(fs, f, cfg)
	t.seq = st.Seq
	t.core.SetJournalState(st.JournalID, st.Gen)
	if now, err = t.core.RecoverTree(now, st.Root, t); err != nil {
		return nil, now, err
	}
	if now, err = t.core.FinishRecovery(now); err != nil {
		return nil, now, err
	}
	return t, now, nil
}

// ---- codec ----

// size is the length of the node's image.
func (n *stubNode) size() int {
	if !n.Leaf {
		return 9 + 8*len(n.seps) + 12*len(n.Children)
	}
	sz := 9 + 20*len(n.keys)
	for _, v := range n.vals {
		sz += len(v)
	}
	return sz
}

// serializeStub appends a node's image to out: magic(4) leaf(1)
// count(4), then per entry key(8) seq(8) vlen(4) val (leaf), or seps (8
// each) followed by count+1 child extents (start 8, pages 4) resolved
// via the callback.
func serializeStub(out []byte, n *stubNode, resolve func(NodeID) Extent) []byte {
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:], stubMagic)
	if n.Leaf {
		hdr[4] = 1
		binary.LittleEndian.PutUint32(hdr[5:], uint32(len(n.keys)))
		out = append(out, hdr[:]...)
		for i := range n.keys {
			var hdr [20]byte
			binary.LittleEndian.PutUint64(hdr[0:], n.keys[i])
			binary.LittleEndian.PutUint64(hdr[8:], n.seqs[i])
			binary.LittleEndian.PutUint32(hdr[16:], uint32(len(n.vals[i])))
			out = append(out, hdr[:]...)
			out = append(out, n.vals[i]...)
		}
		return out
	}
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(n.seps)))
	out = append(out, hdr[:]...)
	for _, sep := range n.seps {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], sep)
		out = append(out, b[:]...)
	}
	for _, c := range n.Children {
		ext := resolve(c)
		var b [12]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(ext.Start))
		binary.LittleEndian.PutUint32(b[8:], uint32(ext.Pages))
		out = append(out, b[:]...)
	}
	return out
}

func parseStub(data []byte) (*stubNode, bool) {
	if len(data) < 9 || binary.LittleEndian.Uint32(data[0:]) != stubMagic {
		return nil, false
	}
	n := &stubNode{Node: Node{Leaf: data[4] == 1}}
	count := int(binary.LittleEndian.Uint32(data[5:]))
	off := 9
	if n.Leaf {
		for i := 0; i < count; i++ {
			if off+20 > len(data) {
				return nil, false
			}
			key := binary.LittleEndian.Uint64(data[off:])
			seq := binary.LittleEndian.Uint64(data[off+8:])
			vlen := int(binary.LittleEndian.Uint32(data[off+16:]))
			off += 20
			if off+vlen > len(data) {
				return nil, false
			}
			n.keys = append(n.keys, key)
			n.seqs = append(n.seqs, seq)
			n.vals = append(n.vals, append([]byte(nil), data[off:off+vlen]...))
			off += vlen
		}
		return n, true
	}
	for i := 0; i < count; i++ {
		if off+8 > len(data) {
			return nil, false
		}
		n.seps = append(n.seps, binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	for i := 0; i <= count; i++ {
		if off+12 > len(data) {
			return nil, false
		}
		n.childExtents = append(n.childExtents, Extent{
			Start: int64(binary.LittleEndian.Uint64(data[off:])),
			Pages: int64(binary.LittleEndian.Uint32(data[off+8:])),
		})
		n.Children = append(n.Children, NilNode)
		off += 12
	}
	return n, true
}
