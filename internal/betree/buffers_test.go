package betree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/workload"
)

// checkTree asserts the tree's invariants: Core.Check's — among them
// that each interior's buffers are the partition of its messages that
// ChildFor defines, sorted and exactly counted — the leaves' footprints
// against a recount, and what is the Bε-tree's own (checkInterior).
func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Nodes() {
		if !n.Leaf {
			checkInterior(t, tr, n)
			continue
		}
		sz := cowtree.PageHeaderBytes
		for i := range n.Entries {
			sz += n.Entries[i].Size()
		}
		if sz != n.Serialized {
			t.Fatalf("leaf %d serialized %d, recomputed %d", n.ID, n.Serialized, sz)
		}
	}
	if len(tr.overfull) != 0 {
		t.Fatalf("%d nodes still queued as overfull between operations", len(tr.overfull))
	}
}

// checkInterior asserts what Core.Check cannot know of an interior node:
// between operations (after drainOverflow) it is within the ε budgets.
func checkInterior(t *testing.T, tr *Tree, n *cowtree.Node) {
	t.Helper()
	if n.Buf.Bytes > tr.bufferMax {
		t.Fatalf("node %d buffer %d over budget %d", n.ID, n.Buf.Bytes, tr.bufferMax)
	}
}

// msgKey returns a copy of a message's key bytes.
func msgKey(m *cowtree.Record) []byte {
	var kb [kv.KeySize]byte
	return append([]byte(nil), m.Key(&kb)...)
}

// sameMessage reports whether two messages are equal field for field,
// key and value bytes included.
func sameMessage(a, b *cowtree.Record) bool {
	return bytes.Equal(msgKey(a), msgKey(b)) && bytes.Equal(a.Val(), b.Val()) &&
		a.Seq() == b.Seq() && a.Vlen() == b.Vlen() && a.Del() == b.Del()
}

// checkRoundTrip serializes an interior node and parses the image back:
// the image is exactly the accounted size (content mode), its header
// counts exactly the buffered messages, and parseNode's re-partition by
// separator equals the original buffers slice for slice (an
// accounting-mode message comes back with the zeros written for it).
func checkRoundTrip(t *testing.T, n *cowtree.Node) {
	t.Helper()
	img := n.AppendImage(nil, nodeMagic, nil)
	if len(img) != n.Serialized {
		t.Fatalf("node %d image is %d bytes, accounted %d", n.ID, len(img), n.Serialized)
	}
	msgs := 0
	for _, buf := range n.Buf.Msgs {
		msgs += len(buf)
	}
	if got := int(binary.LittleEndian.Uint32(img[12:])); got != msgs {
		t.Fatalf("node %d header counts %d messages, buffers hold %d", n.ID, got, msgs)
	}
	got, _, ok := parseNode(img)
	if !ok {
		t.Fatalf("node %d image does not parse", n.ID)
	}
	gb, nb := &got.Buf, &n.Buf
	if len(gb.Msgs) != len(nb.Msgs) || !slices.Equal(gb.Sizes, nb.Sizes) || gb.Bytes != nb.Bytes {
		t.Fatalf("node %d re-partition: %d buffers sizes %v total %d, want %d %v %d",
			n.ID, len(gb.Msgs), gb.Sizes, gb.Bytes, len(nb.Msgs), nb.Sizes, nb.Bytes)
	}
	for ci := range nb.Msgs {
		if len(gb.Msgs[ci]) != len(nb.Msgs[ci]) {
			t.Fatalf("node %d buffer %d: %d messages after the round trip, want %d",
				n.ID, ci, len(gb.Msgs[ci]), len(nb.Msgs[ci]))
		}
		for i := range nb.Msgs[ci] {
			want := nb.Msgs[ci][i]
			if want.Val() == nil && want.Vlen() > 0 {
				key := msgKey(&want)
				want = cowtree.MakeRecord(key, want.Seq(), want.Vlen(), want.Del())
				var zeros cowtree.RecordArena
				zeros.Own(&want, make([]byte, want.Vlen()), nil)
			}
			if !sameMessage(&gb.Msgs[ci][i], &want) {
				t.Fatalf("node %d buffer %d message %d changed in the round trip", n.ID, ci, i)
			}
		}
	}
}

// modelShape is one tree geometry of TestBufferModel.
type modelShape struct {
	name                 string
	eps                  float64
	nodeBytes, leafBytes int
	maxVal               int
}

// TestBufferModel drives seeded put/delete/get/scan steps against a map
// oracle on small content-mode trees and, every few hundred steps,
// checks the structural invariants and round-trips every interior image.
// The buffered shapes must also have exercised the partition's seams,
// which the test proves from what it observed: flush decisions predicted
// from the root's byte counts before the step (busiest child not the
// first; a tie going to the first maximum), interior splits that handed
// non-empty child buffers to the new right node, splits that queued an
// over-budget half for the overfull drain, and round trips of nodes with
// several populated buffers. (The one seam no operation sequence can
// reach — LinkChild cutting a non-empty buffer — is driven directly in
// TestNodeMatchesFlatReference.)
func TestBufferModel(t *testing.T) {
	for _, sh := range []modelShape{
		// Pivot budget at its floor: two or three children per node, a
		// deep tree in which interior splits and overfull halves are
		// routine.
		{"eps=0.4", 0.4, 4 << 10, 1 << 10, 300},
		// A wide, shallow tree like the benchmark's, scaled down.
		{"eps=0.5", 0.5, 256 << 10, 8 << 10, 2400},
		// No buffer at all: every node keeps empty child buffers.
		{"eps=1", 1, 512, 2 << 10, 600},
	} {
		t.Run(sh.name, func(t *testing.T) { runBufferModel(t, sh) })
	}
}

func runBufferModel(t *testing.T, sh modelShape) {
	const (
		steps      = 24000
		keySpace   = 2500
		checkEvery = 400
	)
	tr, _, fs := testEnv(t, 256, true, func(c *Config) {
		c.Epsilon, c.NodeBytes, c.LeafPageBytes = sh.eps, sh.nodeBytes, sh.leafBytes
		c.CacheBytes = int64(16 * sh.leafBytes)
		c.CheckpointInterval = 20 * time.Millisecond
	})
	var reached struct {
		flushes, flushNotFirst, flushTie   int
		rightTookBuffers, overfullQueued   int
		roundTrips, roundTripsMultiBuffer  int
		bufferedOverwrites, tombstones     int
		bufferAnswered, scans, scanEntries int
	}
	oracle := map[uint64][]byte{}
	rng := sim.NewRNG(20 + uint64(sh.eps*10))
	var now sim.Duration
	var err error
	var want []int // the root's byte counts as the step should leave them

	for step := 0; step < steps; step++ {
		id := rng.Uint64n(keySpace)
		key := kv.EncodeKey(id)
		switch op := rng.Intn(100); {
		case op < 65: // put or delete
			// Every other thousand steps writes one size and no
			// tombstones, so that children tie on bytes; the rest mixes
			// three sizes and deletes.
			var val []byte
			mixed := step/1000%2 == 0
			del := mixed && op >= 55
			if !del {
				size := sh.maxVal
				if mixed {
					size >>= uint(rng.Intn(3))
				}
				val = bytes.Repeat([]byte{byte(step)}, size)
				binary.LittleEndian.PutUint32(val, uint32(step))
			}
			// Predict the flush this step's root insert may trigger.
			root := tr.Node(tr.Root())
			want = want[:0]
			if !root.Leaf && tr.bufferMax > 0 {
				want = append(want, root.Buf.Sizes...)
				target := kv.NewTarget(key)
				ci := root.ChildFor(target)
				want[ci] += cowtree.RecordOverhead + len(key) + len(val)
				if m := root.Buf.Get(ci, target); m != nil {
					want[ci] -= m.Size()
					reached.bufferedOverwrites++
				}
			}
			splits, nodes := tr.io.InteriorSplits, len(tr.Nodes())
			if del {
				now, err = tr.Delete(now, key)
				delete(oracle, id)
				reached.tombstones++
			} else {
				now, err = tr.Put(now, key, val, 0)
				oracle[id] = val
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if len(want) > 0 && tr.Core.Root() == root.ID && len(root.Buf.Sizes) == len(want) {
				// No child of the root split, so its buffers changed only
				// by its own flushes (whatever cascaded below): while it
				// is over budget the busiest child's buffer goes, the
				// first of them on a tie, and every other is untouched.
				for total(want) > tr.bufferMax {
					best := 0
					for ci, b := range want {
						if b > want[best] {
							best = ci
						}
					}
					reached.flushes++
					if best != 0 {
						reached.flushNotFirst++
					}
					if slices.Index(want[best+1:], want[best]) >= 0 {
						reached.flushTie++
					}
					want[best] = 0
				}
				if !slices.Equal(root.Buf.Sizes, want) {
					t.Fatalf("step %d: root buffers hold %v bytes, predicted %v", step, root.Buf.Sizes, want)
				}
			}
			if tr.io.InteriorSplits > splits {
				for _, n := range tr.Nodes()[nodes:] {
					// A new interior node that is not the root is a split's
					// right half; nothing flushes into it within the step
					// that made it, so what it holds it took with it.
					if !n.Leaf && n.ID != tr.Core.Root() && n.Buf.Bytes > 0 {
						reached.rightTookBuffers++
					}
				}
			}
			if c := cap(tr.overfull); c > reached.overfullQueued {
				reached.overfullQueued = c // grows only when a split queues a half
			}
		case op < 95: // get
			hits := tr.io.BufferHits
			var got []byte
			var found bool
			if now, got, found, err = tr.Get(now, key); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if wantVal, ok := oracle[id]; found != ok || !bytes.Equal(got, wantVal) {
				t.Fatalf("step %d: Get(%d) found=%v (%d bytes), oracle has=%v (%d bytes)",
					step, id, found, len(got), ok, len(wantVal))
			}
			reached.bufferAnswered += int(tr.io.BufferHits - hits)
		default: // scan
			limit := 1 + rng.Intn(40)
			var got []kv.Entry
			if now, got, err = tr.Scan(now, key, limit); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			checkScan(t, got, oracle, id, keySpace, limit)
			reached.scans++
			reached.scanEntries += len(got)
		}
		if step%checkEvery == checkEvery-1 {
			checkTree(t, tr)
			for _, n := range tr.Nodes() {
				if n.Leaf {
					continue
				}
				checkRoundTrip(t, n)
				reached.roundTrips++
				populated := 0
				for _, buf := range n.Buf.Msgs {
					if len(buf) > 0 {
						populated++
					}
				}
				if populated > 1 {
					reached.roundTripsMultiBuffer++
				}
			}
		}
	}
	checkTree(t, tr)
	leaves, interiors := tr.NodeCount()
	t.Logf("depth %d, %d leaves, %d interiors, io %+v", tr.Depth(), leaves, interiors, tr.IO())
	t.Logf("reached %+v", reached)
	if tr.Depth() < 3 || tr.IO().Checkpoints == 0 {
		t.Fatalf("depth %d with %d checkpoints: the run was too small", tr.Depth(), tr.IO().Checkpoints)
	}
	must := map[string]int{
		"round trip": reached.roundTrips, "tombstone": reached.tombstones,
		"scan entries": reached.scanEntries,
	}
	if sh.eps < 1 {
		must["flush whose busiest child is not child 0"] = reached.flushNotFirst
		must["interior split moving non-empty buffers right"] = reached.rightTookBuffers
		must["round trip of several populated buffers"] = reached.roundTripsMultiBuffer
		must["overwrite of a buffered message"] = reached.bufferedOverwrites
		must["buffer-answered get"] = reached.bufferAnswered
	} else if tr.BufferedBytes() != 0 || reached.flushes != 0 {
		t.Fatalf("ε=1 buffered %d bytes, %d flushes", tr.BufferedBytes(), reached.flushes)
	}
	switch sh.eps {
	case 0.4: // wide nodes are never split while over budget
		must["split half queued for the overfull drain"] = reached.overfullQueued
	case 0.5: // two or three children filled by an odd number of equal messages never tie
		must["flush decided by the first-maximum tie rule"] = reached.flushTie
	}
	for name, n := range must {
		if n == 0 {
			t.Errorf("the run never reached: %s", name)
		}
	}

	// The images the checkpoints wrote are the same codec: a recovered
	// tree holds the oracle's contents in well-formed partitions.
	if _, err := tr.Close(now); err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(fs, tr.cfg, now)
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, rec)
	_, all, err := rec.Scan(now, kv.EncodeKey(0), keySpace+1)
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, all, oracle, 0, keySpace, keySpace+1)
}

func total(sizes []int) (sum int) {
	for _, b := range sizes {
		sum += b
	}
	return sum
}

// checkScan asserts a Scan result equals the oracle's live entries with
// from <= id < keySpace, in key order, up to limit.
func checkScan(t *testing.T, got []kv.Entry, oracle map[uint64][]byte, from, keySpace uint64, limit int) {
	t.Helper()
	var ids []uint64
	for id := from; id < keySpace && len(ids) < limit; id++ {
		if _, ok := oracle[id]; ok {
			ids = append(ids, id)
		}
	}
	if len(got) != len(ids) {
		t.Fatalf("scan from %d limit %d: %d entries, oracle has %d", from, limit, len(got), len(ids))
	}
	for i, id := range ids {
		if !bytes.Equal(got[i].Key, kv.EncodeKey(id)) || !bytes.Equal(got[i].Value, oracle[id]) ||
			got[i].ValueLen != len(oracle[id]) {
			t.Fatalf("scan from %d: entry %d is key %x (%d bytes), want id %d (%d bytes)",
				from, i, got[i].Key, got[i].ValueLen, id, len(oracle[id]))
		}
	}
}

// flatNode is the interior buffer as it was before the partition — ONE
// key-sorted array for the whole node, with the code that maintained it
// moved here verbatim (adapted only to the message's representation):
// it is the reference TestNodeMatchesFlatReference holds the partitioned
// node to, and the baseline BenchmarkBufferInsert measures it against.
type flatNode struct {
	seps     [][]byte
	buf      []cowtree.Record
	bufBytes int
}

// bufInsert is the old node.bufInsert, on the shared upsert; c is the
// reference's allocator.
func (f *flatNode) bufInsert(c *cowtree.Core, m cowtree.Record, key, val []byte, owned bool) int {
	var kb [kv.KeySize]byte
	arena := c.Arena()
	if owned {
		key, arena = m.Key(&kb), nil
	}
	var delta int
	f.buf, delta = cowtree.InsertRecord(c.Records(), arena, f.buf, m, kv.NewTarget(key), val)
	f.bufBytes += delta
	return delta
}

// busiest is the old flushInterior's choice: every child's range of the
// sorted buffer by binary search, its bytes re-summed, the first strict
// maximum kept. It returns the child and its range (bestBytes <= 0:
// nothing buffered).
func (f *flatNode) busiest() (bestCi, bestStart, bestEnd, bestBytes int) {
	start, bestBytes := 0, -1
	for ci := 0; ci <= len(f.seps); ci++ {
		end := len(f.buf)
		if ci < len(f.seps) {
			end = cowtree.SearchRecords(f.buf, kv.NewTarget(f.seps[ci]))
		}
		if end > start {
			b := 0
			for i := start; i < end; i++ {
				b += f.buf[i].Size()
			}
			if b > bestBytes {
				bestBytes, bestCi = b, ci
				bestStart, bestEnd = start, end
			}
		}
		start = end
	}
	return bestCi, bestStart, bestEnd, bestBytes
}

// remove is the old flushInterior's batch removal.
func (f *flatNode) remove(start, end, size int) {
	f.buf = append(f.buf[:start], f.buf[end:]...)
	f.bufBytes -= size
}

// split is the old splitInterior's buffer cut: messages with key >=
// promoted go to the right node.
func (f *flatNode) split(c *cowtree.Core) *flatNode {
	mid := len(f.seps) / 2
	promoted := f.seps[mid]
	right := &flatNode{seps: append([][]byte(nil), f.seps[mid+1:]...)}
	cut := cowtree.SearchRecords(f.buf, kv.NewTarget(promoted))
	right.buf = c.Records().CloneTail(f.buf, cut)
	for i := range right.buf {
		right.bufBytes += right.buf[i].Size()
	}
	f.buf = f.buf[:cut]
	f.bufBytes -= right.bufBytes
	f.seps = f.seps[:mid]
	return right
}

// checkAgainstFlat asserts the tree passes Core.Check — which audits
// the node's partition — and that the node's buffers, read in child
// order, are the reference's one sorted array message for message.
func checkAgainstFlat(t *testing.T, tr *Tree, n *cowtree.Node, f *flatNode, what string) {
	t.Helper()
	if err := tr.Check(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if n.Buf.Bytes != f.bufBytes {
		t.Fatalf("%s: buffered bytes %d, reference %d", what, n.Buf.Bytes, f.bufBytes)
	}
	i := 0
	for ci, buf := range n.Buf.Msgs {
		for j := range buf {
			if i >= len(f.buf) || !sameMessage(&buf[j], &f.buf[i]) {
				t.Fatalf("%s: buffer %d message %d is not the reference's message %d", what, ci, j, i)
			}
			i++
		}
	}
	if i != len(f.buf) {
		t.Fatalf("%s: %d messages, reference holds %d", what, i, len(f.buf))
	}
}

// TestNodeMatchesFlatReference drives an interior node and the flat
// reference in lockstep through every buffer operation — upserts of all
// message kinds, busiest-child drains, child splits (LinkChild) and
// node splits (SplitInterior) — and asserts after each that the
// partitioned buffers are the flat array cut at the separators, that the
// flush choice is the old scan's, and that the image round-trips. Unlike
// the tree, the driver splits children whose buffers are populated, so
// LinkChild's cut is reached in all its shapes. The node lives in a
// tree's node table, beside the tree proper, with empty leaves for
// children, so that Core.Check audits it.
func TestNodeMatchesFlatReference(t *testing.T) {
	const keySpace = 1000
	tr, _, _ := testEnv(t, 64, false, nil)
	c := &tr.Core
	var fc cowtree.Core // the reference's allocator
	var reached struct {
		fresh, overwrite, valueOverwrite, tombstone, accounting, stale, owned int
		drains, drainNotFirst, drainTie                                       int
		cutBoth, cutAllLeft, cutAllRight, cutEmpty                            int
		nodeSplits, splitMovedBuffers                                         int
	}
	n, child := c.NewNode(false), c.NewNode(true)
	n.Children, child.Parent = []cowtree.NodeID{child.ID}, n.ID
	c.NewBuffers(n)
	n.Serialized = n.PivotBytes()
	f := &flatNode{}
	rng := sim.NewRNG(77)
	seq := uint64(0)

	isSep := func(key []byte) bool {
		return slices.ContainsFunc(sepBytes(n), func(s []byte) bool { return bytes.Equal(s, key) })
	}
	for step := 0; step < 30000; step++ {
		what := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(100); {
		case op < 80: // upsert
			seq++
			key := kv.EncodeKey(rng.Uint64n(keySpace))
			mseq, vlen, del := seq, 0, false
			var val []byte
			target := kv.NewTarget(key)
			resident := n.Buf.Get(n.ChildFor(target), target)
			switch kind := rng.Intn(10); {
			case kind < 4: // value-bearing (content mode); two sizes, so children tie
				val = bytes.Repeat([]byte{byte(step)}, 8<<uint(rng.Intn(2)))
				vlen = len(val)
				if resident != nil && resident.Val() != nil {
					reached.valueOverwrite++
				}
			case kind < 7: // accounting mode: a length, no bytes
				vlen = 16
				reached.accounting++
			case kind < 9:
				del = true
				reached.tombstone++
			default: // older than what is buffered: must be dropped
				mseq = 0
				if resident != nil {
					reached.stale++
				}
			}
			m := cowtree.MakeRecord(key, mseq, vlen, del)
			owned := rng.Intn(4) == 0
			fmsg := m
			if owned { // as a flush hands it down: bytes already fused
				c.Arena().Own(&m, val, nil)
				fc.Arena().Own(&fmsg, val, nil)
				val = nil
				reached.owned++
			}
			if resident != nil {
				reached.overwrite++
			} else {
				reached.fresh++
			}
			if d, fd := c.InsertMessage(n, m, key, val, owned), f.bufInsert(&fc, fmsg, key, val, owned); d != fd {
				t.Fatalf("%s: delta %d, reference %d", what, d, fd)
			}
		case op < 90: // drain the busiest child, as flushInterior does
			ci, size := n.Buf.Busiest()
			fci, start, end, fsize := f.busiest()
			if size == 0 {
				if fsize > 0 {
					t.Fatalf("%s: nothing to flush, reference would flush child %d", what, fci)
				}
				continue
			}
			if ci != fci || size != fsize || len(n.Buf.Msgs[ci]) != end-start {
				t.Fatalf("%s: busiest child %d (%d bytes, %d messages), reference %d (%d bytes, %d messages)",
					what, ci, size, len(n.Buf.Msgs[ci]), fci, fsize, end-start)
			}
			for i := range n.Buf.Msgs[ci] {
				if !sameMessage(&n.Buf.Msgs[ci][i], &f.buf[start+i]) {
					t.Fatalf("%s: batch message %d differs from the reference's", what, i)
				}
			}
			reached.drains++
			if ci != 0 {
				reached.drainNotFirst++
			}
			if slices.Index(n.Buf.Sizes[ci+1:], size) >= 0 {
				reached.drainTie++
			}
			c.DropBuffer(n, ci)
			f.remove(start, end, fsize)
		case op < 98: // a child splits at a fresh separator
			sep := kv.EncodeKey(rng.Uint64n(keySpace))
			if isSep(sep) || len(n.Children) >= 40 {
				continue
			}
			idx := n.ChildFor(kv.NewTarget(sep))
			before := len(n.Buf.Msgs[idx])
			c.LinkChild(c.Node(n.Children[idx]), sep, c.NewNode(true))
			f.seps = slices.Insert(f.seps, idx, sep)
			switch left, right := len(n.Buf.Msgs[idx]), len(n.Buf.Msgs[idx+1]); {
			case left+right != before:
				t.Fatalf("%s: cut %d messages into %d + %d", what, before, left, right)
			case before == 0:
				reached.cutEmpty++
			case right == 0:
				reached.cutAllLeft++
			case left == 0:
				reached.cutAllRight++
			default:
				reached.cutBoth++
			}
			// Neither half keeps an array a class too large.
			for _, buf := range n.Buf.Msgs[idx : idx+2] {
				if cap(buf) >= 2*len(buf) && cap(buf) > 1 {
					t.Fatalf("%s: a cut half holds %d messages in %d slots", what, len(buf), cap(buf))
				}
			}
		default: // the node splits; carry on with one of the halves
			if n.NumSeps() < 3 {
				continue
			}
			right, promoted := c.SplitInterior(n)
			fright := f.split(&fc)
			for ci, buf := range right.Buf.Msgs {
				if len(buf) > 0 && bytes.Compare(msgKey(&buf[0]), promoted) < 0 {
					t.Fatalf("%s: right buffer %d holds a key below the promoted separator", what, ci)
				}
			}
			reached.nodeSplits++
			if right.Buf.Bytes > 0 && n.Buf.Bytes > 0 {
				reached.splitMovedBuffers++
			}
			checkAgainstFlat(t, tr, n, f, what+" (left half)")
			checkAgainstFlat(t, tr, right, fright, what+" (right half)")
			behind := right
			if rng.Intn(2) == 0 {
				behind, n, f = n, right, fright
			}
			// Empty the half left behind, so that every step's Check
			// stays linear in the node carried on with.
			for ci := range behind.Buf.Msgs {
				c.DropBuffer(behind, ci)
			}
		}
		checkAgainstFlat(t, tr, n, f, what)
		if step%64 == 0 {
			checkRoundTrip(t, n)
		}
	}
	t.Logf("reached %+v", reached)
	for name, c := range map[string]int{
		"fresh insert": reached.fresh, "overwrite": reached.overwrite,
		"value-bearing overwrite": reached.valueOverwrite, "tombstone": reached.tombstone,
		"accounting-mode message": reached.accounting, "stale message dropped": reached.stale,
		"owned (moved-down) message":                      reached.owned,
		"drain of a child other than child 0":             reached.drainNotFirst,
		"drain decided by the first-maximum tie rule":     reached.drainTie,
		"LinkChild cut with messages on both sides":       reached.cutBoth,
		"LinkChild cut leaving everything left":           reached.cutAllLeft,
		"LinkChild cut moving everything right":           reached.cutAllRight,
		"LinkChild on an empty buffer":                    reached.cutEmpty,
		"SplitInterior moving non-empty buffers to right": reached.splitMovedBuffers,
	} {
		if c == 0 {
			t.Errorf("the run never reached: %s", name)
		}
	}
}

// arenaTaken returns how many bytes the arena handed out while f ran,
// from the distance between a one-byte allocation before f and one
// after it.
func arenaTaken(a *cowtree.RecordArena, f func()) int {
	before := a.Alloc(1)
	f()
	after := a.Alloc(1)
	return int(uintptr(unsafe.Pointer(&after[0])) - uintptr(unsafe.Pointer(&before[0])) - 1)
}

// TestMessageCodecKinds round-trips each message kind through
// cowtree.AppendRecord/ParseRecord — a value-bearing message, a
// value-bearing overwrite of it, a tombstone, and an accounting-mode
// message (no value bytes in memory, zeros of its accounted length on
// disk) — and pins what a stored message owns: the key lives in the
// words alone, so an accounting-mode message owns no bytes and a fresh
// one takes nothing from the arena; values are copied, never aliasing
// the caller's buffers; a tombstone or an accounting-mode overwrite
// allocates nothing.
func TestMessageCodecKinds(t *testing.T) {
	var c cowtree.Core
	n := &cowtree.Node{Interior: &cowtree.Interior{Pivots: cowtree.Pivots{Children: []cowtree.NodeID{1}}}}
	c.NewBuffers(n)
	key := bytes.Repeat([]byte{9}, kv.KeySize)
	roundTrip := func(m *cowtree.Record) cowtree.Record {
		t.Helper()
		img := cowtree.AppendRecord(nil, m)
		got, used := cowtree.ParseRecord(img)
		if used != len(img) || used != m.Size() {
			t.Fatalf("message of %d accounted bytes: wrote %d, parsed %d", m.Size(), len(img), used)
		}
		var gb, mb [kv.KeySize]byte
		gt, mt := got.Target(&gb), m.Target(&mb)
		if !bytes.Equal(msgKey(&got), key) || !bytes.Equal(msgKey(m), key) || got.Seq() != m.Seq() ||
			got.Vlen() != m.Vlen() || got.Del() != m.Del() || gt.Hi != mt.Hi || gt.Lo != mt.Lo {
			t.Fatalf("round trip changed %+v into %+v", *m, got)
		}
		return got
	}
	insert := func(m cowtree.Record, val []byte) (taken int) {
		return arenaTaken(c.Arena(), func() { c.InsertMessage(n, m, key, val, false) })
	}

	// A fresh accounting-mode message owns nothing.
	if taken := insert(cowtree.MakeRecord(key, 1, 4000, false), nil); taken != 0 {
		t.Fatalf("a fresh accounting-mode message took %d arena bytes", taken)
	}
	if m := &n.Buf.Msgs[0][0]; m.Val() != nil {
		t.Fatalf("fresh accounting-mode message: %+v", *m)
	}
	roundTrip(&n.Buf.Msgs[0][0])
	c.DropBuffer(n, 0)

	val := []byte("first")
	if taken := insert(cowtree.MakeRecord(key, 2, 5, false), val); taken != len(val) {
		t.Fatalf("a fresh value-bearing message took %d arena bytes", taken)
	}
	if got := roundTrip(&n.Buf.Msgs[0][0]); string(got.Val()) != "first" {
		t.Fatalf("value %q", got.Val())
	}
	// The caller reuses its buffers; the stored message must not alias them.
	key[kv.KeySize-1] ^= 0xff
	val[0] = 'F'
	if bytes.Equal(msgKey(&n.Buf.Msgs[0][0]), key) || string(n.Buf.Msgs[0][0].Val()) != "first" {
		t.Fatal("the stored message aliases the caller's key or value buffer")
	}
	key[kv.KeySize-1] ^= 0xff
	insert(cowtree.MakeRecord(key, 3, 11, false), []byte("second, long"[:11]))
	if got := roundTrip(&n.Buf.Msgs[0][0]); string(got.Val()) != "second, lon" || len(n.Buf.Msgs[0]) != 1 {
		t.Fatalf("overwrite: value %q in %d messages", got.Val(), len(n.Buf.Msgs[0]))
	}
	if n.Buf.Sizes[0] != cowtree.RecordOverhead+kv.KeySize+11 {
		t.Fatalf("overwrite left %d bytes accounted", n.Buf.Sizes[0])
	}

	// A tombstone drops the value and owns nothing.
	if taken := insert(cowtree.MakeRecord(key, 4, 0, true), nil); taken != 0 {
		t.Fatalf("a tombstone took %d arena bytes", taken)
	}
	m := &n.Buf.Msgs[0][0]
	if !m.Del() || m.Val() != nil {
		t.Fatalf("tombstone: %+v", *m)
	}
	if got := roundTrip(m); !got.Del() || len(got.Val()) != 0 {
		t.Fatalf("tombstone round trip: %+v", got)
	}

	// Accounting mode: an overwrite allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		c.InsertMessage(n, cowtree.MakeRecord(key, 5, 4000, false), key, nil, false)
	}); allocs != 0 {
		t.Fatalf("accounting-mode overwrite allocates %.1f objects", allocs)
	}
	if taken := insert(cowtree.MakeRecord(key, 6, 4000, false), nil); taken != 0 {
		t.Fatalf("an accounting-mode overwrite took %d arena bytes", taken)
	}
	m = &n.Buf.Msgs[0][0]
	if m.Val() != nil || m.Vlen() != 4000 {
		t.Fatalf("accounting-mode overwrite: %+v", *m)
	}
	img := cowtree.AppendRecord(nil, m)
	if got, _ := cowtree.ParseRecord(img); len(img) != m.Size() || !bytes.Equal(got.Val(), make([]byte, 4000)) {
		t.Fatalf("accounting-mode image: %d bytes", len(img))
	}
}

// TestScanOverPartitionedBuffers scans a three-level tree that holds
// buffered overwrites and tombstones at both interior levels from every
// 97th key: the merged stream equals the oracle, and it opens at most one
// cursor per interior node — not one per child buffer, which would make
// every pull linear in the tree's fanout times its interior count.
func TestScanOverPartitionedBuffers(t *testing.T) {
	tr, _, _ := testEnv(t, 64, true, func(c *Config) {
		c.Epsilon, c.NodeBytes, c.LeafPageBytes = 0.5, 64<<10, 2<<10
	})
	const keys = 6000
	oracle := map[uint64][]byte{}
	var now sim.Duration
	var err error
	put := func(id uint64, val []byte) {
		t.Helper()
		if val == nil {
			now, err = tr.Delete(now, kv.EncodeKey(id))
			delete(oracle, id)
		} else {
			now, err = tr.Put(now, kv.EncodeKey(id), val, 0)
			oracle[id] = val
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(0); id < keys; id++ {
		put(id, bytes.Repeat([]byte{1}, 100))
	}
	rng := sim.NewRNG(8)
	for i := 0; i < 3*keys; i++ {
		if id := rng.Uint64n(keys); rng.Intn(4) == 0 {
			put(id, nil)
		} else {
			put(id, bytes.Repeat([]byte{byte(i)}, 60+rng.Intn(80)))
		}
	}
	if tr.Depth() < 3 {
		t.Fatalf("depth %d, want a three-level tree", tr.Depth())
	}
	// Both interior levels hold overwrites (of a key some leaf has) and
	// tombstones.
	level := map[cowtree.NodeID]int{tr.Core.Root(): 0}
	var live, dead [2]int
	for _, n := range tr.Nodes() {
		if n.Leaf {
			continue
		}
		if n.ID != tr.Core.Root() {
			level[n.ID] = 1 // any interior below the root
		}
		for _, buf := range n.Buf.Msgs {
			for i := range buf {
				if buf[i].Del() {
					dead[level[n.ID]]++
				} else {
					live[level[n.ID]]++
				}
			}
		}
	}
	if live[0] == 0 || dead[0] == 0 || live[1] == 0 || dead[1] == 0 {
		t.Fatalf("buffered live/tombstone messages per level: %v / %v", live, dead)
	}
	_, interiors := tr.NodeCount()
	buffers := 0
	for _, n := range tr.Nodes() {
		if !n.Leaf {
			buffers += len(n.Buf.Msgs)
		}
	}
	for from := uint64(0); from < keys; from += 97 {
		if c := len(tr.newMsgStream(kv.NewTarget(kv.EncodeKey(from))).cursors); c > interiors {
			t.Fatalf("scan from %d opens %d cursors over %d interior nodes (%d child buffers)",
				from, c, interiors, buffers)
		}
		var got []kv.Entry
		if now, got, err = tr.Scan(now, kv.EncodeKey(from), 150); err != nil {
			t.Fatal(err)
		}
		checkScan(t, got, oracle, from, keys, 150)
	}
	if _, all, err := tr.Scan(now, kv.EncodeKey(0), keys+1); err != nil {
		t.Fatal(err)
	} else {
		checkScan(t, all, oracle, 0, keys, keys+1)
	}
}

// TestArraysSizedToWhatTheyHold is the footprint gate peak_rss_mb is too
// far away to be: after a sequential load and Zipfian overwrites of
// benchmark-shaped data (4,000-byte accounted values), the leaf entry
// arrays and the child buffers together keep at most two slots per
// element. Before splitLeaf re-homed the half that stays, a batch-grown
// leaf halved repeatedly left N log N slots behind (9.3 per entry on the
// benchmark tree).
func TestArraysSizedToWhatTheyHold(t *testing.T) {
	const keys = 50000
	tr, _, _ := testEnv(t, 1024, false, nil)
	var now sim.Duration
	var err error
	key := make([]byte, kv.KeySize)
	for id := uint64(0); id < keys; id++ {
		kv.AppendKey(key, id)
		if now, err = tr.Put(now, key, nil, 4000); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := workload.NewClientGenerators(workload.Spec{
		NumKeys: keys, ValueBytes: 4000, Dist: workload.Zipfian, ZipfTheta: 0.99,
	}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := gens[0]
	for i := 0; i < keys; i++ {
		kv.AppendKey(key, gen.Next().KeyID)
		if now, err = tr.Put(now, key, nil, 4000); err != nil {
			t.Fatal(err)
		}
	}
	var entryLen, entryCap, msgLen, msgCap int
	for _, n := range tr.Nodes() {
		entryLen += len(n.Entries)
		entryCap += cap(n.Entries)
		if n.Leaf {
			continue
		}
		for _, buf := range n.Buf.Msgs {
			msgLen += len(buf)
			msgCap += cap(buf)
		}
	}
	t.Logf("leaf entries: %d in %d slots (%.2fx); buffered messages: %d in %d slots (%.2fx)",
		entryLen, entryCap, float64(entryCap)/float64(entryLen), msgLen, msgCap, float64(msgCap)/float64(msgLen))
	if entryLen < keys || msgLen == 0 {
		t.Fatalf("%d leaf entries, %d buffered messages: the tree is not the loaded one", entryLen, msgLen)
	}
	if entryCap > 2*entryLen {
		t.Errorf("leaf entry arrays keep %d slots for %d entries", entryCap, entryLen)
	}
	if msgCap > 2*msgLen {
		t.Errorf("child buffers keep %d slots for %d messages", msgCap, msgLen)
	}
}

// The node BenchmarkBufferInsert and BenchmarkBufferGet drive is shaped
// like the benchmark tree's root: 33 children over a 2^20 key space and
// a budget of 2,080 messages of 4,000 accounted bytes.
const (
	benchChildren = 33
	benchKeySpace = 1 << 20
	benchVlen     = 4000
	benchBudget   = 2080 * (cowtree.RecordOverhead + kv.KeySize + benchVlen)
)

// benchSeps returns the benchmark node's separators, evenly spaced.
func benchSeps() [][]byte {
	seps := make([][]byte, benchChildren-1)
	for i := range seps {
		seps[i] = kv.EncodeKey(uint64(i+1) * benchKeySpace / benchChildren)
	}
	return seps
}

// benchNode returns the partitioned benchmark node, empty, its buffers
// from c.
func benchNode(c *cowtree.Core) *cowtree.Node {
	n := &cowtree.Node{Interior: &cowtree.Interior{Pivots: cowtree.Pivots{Children: make([]cowtree.NodeID, 1)}}}
	for i, sep := range benchSeps() {
		n.InsertChild(i, sep, 0)
	}
	c.NewBuffers(n)
	return n
}

// benchUpsert upserts one accounting-mode message for key into the
// benchmark node, draining the busiest child while the node is over its
// budget.
func benchUpsert(c *cowtree.Core, n *cowtree.Node, key []byte, seq int) {
	c.InsertMessage(n, cowtree.MakeRecord(key, uint64(seq), benchVlen, false), key, nil, false)
	for n.Buf.Bytes > benchBudget {
		ci, _ := n.Buf.Busiest()
		c.DropBuffer(n, ci)
	}
}

// BenchmarkBufferInsert is the layer-level number behind the partition:
// upserting uniformly random keys into the benchmark node, draining the
// busiest child whenever the node goes over — on the partitioned node
// and on the flat sorted array it replaced, whose every insert shifts
// half the buffer.
func BenchmarkBufferInsert(b *testing.B) {
	key := make([]byte, kv.KeySize)
	run := func(b *testing.B, upsert func(seq int)) {
		rng := sim.NewRNG(1)
		next := func(seq int) {
			kv.AppendKey(key, rng.Uint64n(benchKeySpace))
			upsert(seq)
		}
		for i := 0; i < 3*2080; i++ { // to the budget, and past load-time growth
			next(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next(i)
		}
	}
	b.Run("partitioned", func(b *testing.B) {
		var c cowtree.Core
		n := benchNode(&c)
		run(b, func(seq int) { benchUpsert(&c, n, key, seq) })
	})
	b.Run("flat", func(b *testing.B) {
		var c cowtree.Core
		f := &flatNode{seps: benchSeps()}
		run(b, func(seq int) {
			f.bufInsert(&c, cowtree.MakeRecord(key, uint64(seq), benchVlen, false), key, nil, false)
			for f.bufBytes > benchBudget {
				_, start, end, size := f.busiest()
				f.remove(start, end, size)
			}
		})
	})
}

// benchHit keeps BenchmarkBufferGet's lookups observable.
var benchHit *cowtree.Record

// BenchmarkBufferGet is the read side: on the benchmark node filled to
// its budget by BenchmarkBufferInsert's upserts, a buffer-answered lookup
// of a random resident key — the key's decoding, ChildFor and
// Buffers.Get, what Get does at each interior level it searches.
func BenchmarkBufferGet(b *testing.B) {
	var c cowtree.Core
	n := benchNode(&c)
	rng := sim.NewRNG(1)
	var ids []uint64
	key := make([]byte, kv.KeySize)
	for i := 0; i < 3*2080; i++ {
		ids = append(ids, rng.Uint64n(benchKeySpace))
		kv.AppendKey(key, ids[i])
		benchUpsert(&c, n, key, i)
	}
	var resident [][]byte
	for _, id := range ids {
		k := kv.EncodeKey(id)
		if t := kv.NewTarget(k); n.Buf.Get(n.ChildFor(t), t) != nil {
			resident = append(resident, k)
		}
	}
	if len(resident) < 1000 {
		b.Fatalf("%d resident keys", len(resident))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := kv.NewTarget(resident[rng.Intn(len(resident))])
		if benchHit = n.Buf.Get(n.ChildFor(t), t); benchHit == nil {
			b.Fatal("a resident key missed")
		}
	}
}
