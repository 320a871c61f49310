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

// checkTree asserts every node's structural invariants: the serialized
// footprints match a recount and, on interior nodes, the per-child
// buffers are the partition of the node's messages that childFor
// defines — one buffer and one byte count per child, every message in
// the buffer of the child covering its key, each buffer strictly
// sorted, the byte counts exact — and, between operations (after
// drainOverflow), no node is left over its buffer budget.
func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	for _, n := range tr.nodes[1:] {
		if n.Leaf {
			sz := pageHeaderBytes
			for i := range n.entries {
				sz += n.entries[i].bytes()
			}
			if sz != n.Serialized {
				t.Fatalf("leaf %d serialized %d, recomputed %d", n.ID, n.Serialized, sz)
			}
			continue
		}
		checkInterior(t, n)
		if n.bufBytes > tr.bufferMax {
			t.Fatalf("node %d buffer %d over budget %d", n.ID, n.bufBytes, tr.bufferMax)
		}
	}
	if len(tr.overfull) != 0 {
		t.Fatalf("%d nodes still queued as overfull between operations", len(tr.overfull))
	}
}

// checkInterior asserts one interior node's buffer and footprint
// invariants (see checkTree).
func checkInterior(t *testing.T, n *node) {
	t.Helper()
	if len(n.bufs) != len(n.Children) || len(n.bufSizes) != len(n.Children) || len(n.seps)+1 != len(n.Children) {
		t.Fatalf("node %d: %d bufs, %d bufSizes, %d seps for %d children",
			n.ID, len(n.bufs), len(n.bufSizes), len(n.seps), len(n.Children))
	}
	total := 0
	for ci, buf := range n.bufs {
		bb := 0
		for i := range buf {
			if got := n.childFor(kv.NewTarget(buf[i].key)); got != ci {
				t.Fatalf("node %d: buffer %d holds a key of child %d", n.ID, ci, got)
			}
			if i > 0 && kv.CompareKeys(buf[i-1].key, buf[i].key) >= 0 {
				t.Fatalf("node %d buffer %d out of order", n.ID, ci)
			}
			bb += buf[i].bytes()
		}
		if bb != n.bufSizes[ci] {
			t.Fatalf("node %d bufSizes[%d] %d, recomputed %d", n.ID, ci, n.bufSizes[ci], bb)
		}
		total += bb
	}
	if total != n.bufBytes {
		t.Fatalf("node %d bufBytes %d, recomputed %d", n.ID, n.bufBytes, total)
	}
	pv := pageHeaderBytes + childRefBytes*len(n.Children)
	for _, sep := range n.seps {
		pv += 2 + len(sep)
	}
	if pv != n.pivotBytes {
		t.Fatalf("node %d pivotBytes %d, recomputed %d", n.ID, n.pivotBytes, pv)
	}
	if n.Serialized != pv+total {
		t.Fatalf("node %d serialized %d != pivot %d + buf %d", n.ID, n.Serialized, pv, total)
	}
}

// sameMessage reports whether two messages are equal field for field,
// value bytes included.
func sameMessage(a, b *message) bool {
	return bytes.Equal(a.key, b.key) && bytes.Equal(a.val(), b.val()) &&
		a.seq == b.seq && a.vlen == b.vlen && a.del == b.del
}

// checkRoundTrip serializes an interior node and parses the image back:
// the image is exactly the accounted size (content mode), its header
// counts exactly the buffered messages, and parseNode's re-partition by
// separator equals the original buffers slice for slice (an
// accounting-mode message comes back with the zeros written for it).
func checkRoundTrip(t *testing.T, n *node) {
	t.Helper()
	img := serializeNode(nil, n, nil)
	if len(img) != n.Serialized {
		t.Fatalf("node %d image is %d bytes, accounted %d", n.ID, len(img), n.Serialized)
	}
	msgs := 0
	for _, buf := range n.bufs {
		msgs += len(buf)
	}
	if got := int(binary.LittleEndian.Uint32(img[12:])); got != msgs {
		t.Fatalf("node %d header counts %d messages, buffers hold %d", n.ID, got, msgs)
	}
	got, ok := parseNode(img)
	if !ok {
		t.Fatalf("node %d image does not parse", n.ID)
	}
	if len(got.bufs) != len(n.bufs) || !slices.Equal(got.bufSizes, n.bufSizes) || got.bufBytes != n.bufBytes {
		t.Fatalf("node %d re-partition: %d buffers sizes %v total %d, want %d %v %d",
			n.ID, len(got.bufs), got.bufSizes, got.bufBytes, len(n.bufs), n.bufSizes, n.bufBytes)
	}
	for ci := range n.bufs {
		if len(got.bufs[ci]) != len(n.bufs[ci]) {
			t.Fatalf("node %d buffer %d: %d messages after the round trip, want %d",
				n.ID, ci, len(got.bufs[ci]), len(n.bufs[ci]))
		}
		for i := range n.bufs[ci] {
			want := n.bufs[ci][i]
			if want.val() == nil && want.vlen > 0 {
				want.key = append(want.key[:len(want.key):len(want.key)], make([]byte, want.vlen)...)[:len(want.key)]
			}
			if !sameMessage(&got.bufs[ci][i], &want) {
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
// reach — insertChild cutting a non-empty buffer — is driven directly in
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
			root := tr.nodes[tr.core.Root()]
			want = want[:0]
			if !root.Leaf && tr.bufferMax > 0 {
				want = append(want, root.bufSizes...)
				target := kv.NewTarget(key)
				ci := root.childFor(target)
				want[ci] += msgOverhead + len(key) + len(val)
				if m := root.bufGet(ci, target); m != nil {
					want[ci] -= m.bytes()
					reached.bufferedOverwrites++
				}
			}
			splits, nodes := tr.io.InteriorSplits, len(tr.nodes)
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
			if len(want) > 0 && tr.core.Root() == root.ID && len(root.bufSizes) == len(want) {
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
				if !slices.Equal(root.bufSizes, want) {
					t.Fatalf("step %d: root buffers hold %v bytes, predicted %v", step, root.bufSizes, want)
				}
			}
			if tr.io.InteriorSplits > splits {
				for _, n := range tr.nodes[nodes:] {
					// A new interior node that is not the root is a split's
					// right half; nothing flushes into it within the step
					// that made it, so what it holds it took with it.
					if !n.Leaf && n.ID != tr.core.Root() && n.bufBytes > 0 {
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
			for _, n := range tr.nodes[1:] {
				if n.Leaf {
					continue
				}
				checkRoundTrip(t, n)
				reached.roundTrips++
				populated := 0
				for _, buf := range n.bufs {
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
// moved here verbatim (adapted only to the one-slice message): it is the
// reference TestNodeMatchesFlatReference holds the partitioned node to,
// and the baseline BenchmarkBufferInsert measures it against.
type flatNode struct {
	seps     [][]byte
	buf      []message
	bufBytes int
}

// bufInsert is the old node.bufInsert.
func (f *flatNode) bufInsert(mm *mem, m message, val []byte, owned bool) int {
	i := searchMsgs(f.buf, kv.NewTarget(m.key))
	if i < len(f.buf) && bytes.Equal(f.buf[i].key, m.key) {
		old := &f.buf[i]
		if m.seq < old.seq {
			return 0
		}
		delta := m.bytes() - old.bytes()
		if !owned {
			mm.own(&m, val, old.key)
		}
		*old = m
		f.bufBytes += delta
		return delta
	}
	if !owned {
		mm.own(&m, val, nil)
	}
	f.buf = mm.msgs.GrowInsert(f.buf, i, m)
	delta := m.bytes()
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
			end = searchMsgs(f.buf, kv.NewTarget(f.seps[ci]))
		}
		if end > start {
			b := 0
			for i := start; i < end; i++ {
				b += f.buf[i].bytes()
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
func (f *flatNode) split(mm *mem) *flatNode {
	mid := len(f.seps) / 2
	promoted := f.seps[mid]
	right := &flatNode{seps: append([][]byte(nil), f.seps[mid+1:]...)}
	cut := searchMsgs(f.buf, kv.NewTarget(promoted))
	right.buf = mm.msgs.CloneTail(f.buf, cut)
	for i := range right.buf {
		right.bufBytes += right.buf[i].bytes()
	}
	f.buf = f.buf[:cut]
	f.bufBytes -= right.bufBytes
	f.seps = f.seps[:mid]
	return right
}

// dropBuffer removes child ci's buffer of size bytes from the node the
// way flushInterior does once the batch has moved down.
func dropBuffer(mm *mem, n *node, ci, size int) {
	mm.msgs.Put(n.bufs[ci])
	n.bufs[ci], n.bufSizes[ci] = nil, 0
	n.bufBytes -= size
	n.Serialized -= size
}

// checkAgainstFlat asserts the node's buffers, read in child order, are
// the reference's one sorted array message for message.
func checkAgainstFlat(t *testing.T, n *node, f *flatNode, what string) {
	t.Helper()
	checkInterior(t, n)
	if n.bufBytes != f.bufBytes {
		t.Fatalf("%s: bufBytes %d, reference %d", what, n.bufBytes, f.bufBytes)
	}
	i := 0
	for ci, buf := range n.bufs {
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
// message kinds, busiest-child drains, child splits (insertChild) and
// node splits (splitInterior) — and asserts after each that the
// partitioned buffers are the flat array cut at the separators, that the
// flush choice is the old scan's, and that the image round-trips. Unlike
// the tree, the driver splits children whose buffers are populated, so
// insertChild's cut is reached in all its shapes.
func TestNodeMatchesFlatReference(t *testing.T) {
	const keySpace = 1000
	var mm, fm mem
	var reached struct {
		fresh, overwrite, valueOverwrite, tombstone, accounting, stale, owned int
		drains, drainNotFirst, drainTie                                       int
		cutBoth, cutAllLeft, cutAllRight, cutEmpty                            int
		nodeSplits, splitMovedBuffers                                         int
	}
	n := &node{Node: cowtree.Node{Children: []nodeID{1}}, bufs: make([][]message, 1), bufSizes: make([]int, 1)}
	n.recomputeSerialized()
	n.refreshSepCache()
	f := &flatNode{}
	nextChild := nodeID(2)
	rng := sim.NewRNG(77)
	seq := uint64(0)

	isSep := func(key []byte) bool {
		return slices.ContainsFunc(n.seps, func(s []byte) bool { return bytes.Equal(s, key) })
	}
	for step := 0; step < 30000; step++ {
		what := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(100); {
		case op < 80: // upsert
			seq++
			key := kv.EncodeKey(rng.Uint64n(keySpace))
			m := makeMessage(key, seq, 0, false)
			var val []byte
			target := kv.NewTarget(key)
			resident := n.bufGet(n.childFor(target), target)
			switch kind := rng.Intn(10); {
			case kind < 4: // value-bearing (content mode); two sizes, so children tie
				val = bytes.Repeat([]byte{byte(step)}, 8<<uint(rng.Intn(2)))
				m.vlen = int32(len(val))
				if resident != nil && resident.val() != nil {
					reached.valueOverwrite++
				}
			case kind < 7: // accounting mode: a length, no bytes
				m.vlen = 16
				reached.accounting++
			case kind < 9:
				m.del = true
				reached.tombstone++
			default: // older than what is buffered: must be dropped
				m.seq = 0
				if resident != nil {
					reached.stale++
				}
			}
			owned := rng.Intn(4) == 0
			fmsg := m
			if owned { // as a flush hands it down: bytes already fused
				mm.own(&m, val, nil)
				fm.own(&fmsg, val, nil)
				val = nil
				reached.owned++
			}
			if resident != nil {
				reached.overwrite++
			} else {
				reached.fresh++
			}
			if d, fd := n.bufInsert(&mm, m, val, owned), f.bufInsert(&fm, fmsg, val, owned); d != fd {
				t.Fatalf("%s: delta %d, reference %d", what, d, fd)
			}
		case op < 90: // drain the busiest child, as flushInterior does
			ci, size := n.busiestChild()
			fci, start, end, fsize := f.busiest()
			if size == 0 {
				if fsize > 0 {
					t.Fatalf("%s: nothing to flush, reference would flush child %d", what, fci)
				}
				continue
			}
			if ci != fci || size != fsize || len(n.bufs[ci]) != end-start {
				t.Fatalf("%s: busiest child %d (%d bytes, %d messages), reference %d (%d bytes, %d messages)",
					what, ci, size, len(n.bufs[ci]), fci, fsize, end-start)
			}
			for i := range n.bufs[ci] {
				if !sameMessage(&n.bufs[ci][i], &f.buf[start+i]) {
					t.Fatalf("%s: batch message %d differs from the reference's", what, i)
				}
			}
			reached.drains++
			if ci != 0 {
				reached.drainNotFirst++
			}
			if slices.Index(n.bufSizes[ci+1:], size) >= 0 {
				reached.drainTie++
			}
			dropBuffer(&mm, n, ci, size)
			f.remove(start, end, fsize)
		case op < 98: // a child splits at a fresh separator
			sep := kv.EncodeKey(rng.Uint64n(keySpace))
			if isSep(sep) || len(n.Children) >= 40 {
				continue
			}
			idx := n.childFor(kv.NewTarget(sep))
			before := len(n.bufs[idx])
			n.insertChild(&mm, idx, sep, nextChild)
			nextChild++
			f.seps = slices.Insert(f.seps, idx, sep)
			switch left, right := len(n.bufs[idx]), len(n.bufs[idx+1]); {
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
			for _, buf := range n.bufs[idx : idx+2] {
				if cap(buf) >= 2*len(buf) && cap(buf) > 1 {
					t.Fatalf("%s: a cut half holds %d messages in %d slots", what, len(buf), cap(buf))
				}
			}
		default: // the node splits; carry on with one of the halves
			if len(n.seps) < 3 {
				continue
			}
			right := &node{}
			promoted := n.splitInterior(right)
			fright := f.split(&fm)
			for ci, buf := range right.bufs {
				if len(buf) > 0 && kv.CompareKeys(buf[0].key, promoted) < 0 {
					t.Fatalf("%s: right buffer %d holds a key below the promoted separator", what, ci)
				}
			}
			reached.nodeSplits++
			if right.bufBytes > 0 && n.bufBytes > 0 {
				reached.splitMovedBuffers++
			}
			checkAgainstFlat(t, n, f, what+" (left half)")
			checkAgainstFlat(t, right, fright, what+" (right half)")
			if rng.Intn(2) == 0 {
				n, f = right, fright
			}
		}
		checkAgainstFlat(t, n, f, what)
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
		"insertChild cut with messages on both sides":     reached.cutBoth,
		"insertChild cut leaving everything left":         reached.cutAllLeft,
		"insertChild cut moving everything right":         reached.cutAllRight,
		"insertChild on an empty buffer":                  reached.cutEmpty,
		"splitInterior moving non-empty buffers to right": reached.splitMovedBuffers,
	} {
		if c == 0 {
			t.Errorf("the run never reached: %s", name)
		}
	}
}

// TestMessageCodecKinds round-trips each message kind through
// putMessage/parseMessage: a value-bearing message, a value-bearing
// overwrite of it, a tombstone, and an accounting-mode message (no value
// bytes in memory, zeros of its accounted length on disk).
func TestMessageCodecKinds(t *testing.T) {
	var mm mem
	n := &node{Node: cowtree.Node{Children: []nodeID{1}}, bufs: make([][]message, 1), bufSizes: make([]int, 1)}
	key := kv.EncodeKey(9)
	roundTrip := func(m *message) message {
		t.Helper()
		img := putMessage(nil, m)
		got, used := parseMessage(img)
		if used != len(img) || used != m.bytes() {
			t.Fatalf("message of %d accounted bytes: wrote %d, parsed %d", m.bytes(), len(img), used)
		}
		if !bytes.Equal(got.key, m.key) || got.seq != m.seq || got.vlen != m.vlen || got.del != m.del {
			t.Fatalf("round trip changed %+v into %+v", *m, got)
		}
		return got
	}

	n.bufInsert(&mm, makeMessage(key, 1, 5, false), []byte("first"), false)
	if got := roundTrip(&n.bufs[0][0]); string(got.val()) != "first" {
		t.Fatalf("value %q", got.val())
	}
	// The caller reuses its key buffer; the stored message must not alias it.
	key[15] ^= 0xff
	if bytes.Equal(n.bufs[0][0].key, key) {
		t.Fatal("the stored message aliases the caller's key buffer")
	}
	key[15] ^= 0xff
	n.bufInsert(&mm, makeMessage(key, 2, 11, false), []byte("second, long"[:11]), false)
	if got := roundTrip(&n.bufs[0][0]); string(got.val()) != "second, lon" || len(n.bufs[0]) != 1 {
		t.Fatalf("overwrite: value %q in %d messages", got.val(), len(n.bufs[0]))
	}
	if n.bufSizes[0] != msgOverhead+len(key)+11 {
		t.Fatalf("overwrite left %d bytes accounted", n.bufSizes[0])
	}
	// A tombstone keeps the resident key bytes and drops the value.
	stored := n.bufs[0][0].key
	n.bufInsert(&mm, makeMessage(key, 3, 0, true), nil, false)
	if m := &n.bufs[0][0]; !m.del || m.val() != nil || &m.key[0] != &stored[0] {
		t.Fatalf("tombstone: %+v", *m)
	}
	if got := roundTrip(&n.bufs[0][0]); !got.del || len(got.val()) != 0 {
		t.Fatalf("tombstone round trip: %+v", got)
	}
	// Accounting mode: an overwrite allocates nothing and keeps the key.
	resident := n.bufs[0][0].key
	if allocs := testing.AllocsPerRun(100, func() {
		n.bufInsert(&mm, makeMessage(key, 4, 4000, false), nil, false)
	}); allocs != 0 {
		t.Fatalf("accounting-mode overwrite allocates %.1f objects", allocs)
	}
	m := &n.bufs[0][0]
	if &m.key[0] != &resident[0] || m.val() != nil || m.vlen != 4000 {
		t.Fatalf("accounting-mode overwrite: %+v", *m)
	}
	img := putMessage(nil, m)
	if got, _ := parseMessage(img); len(img) != m.bytes() || !bytes.Equal(got.val(), make([]byte, 4000)) {
		t.Fatalf("accounting-mode image: %d bytes", len(img))
	}
}

// TestMessageSize pins the message at 40 bytes: one slice, a sequence
// and the packed length and flag. A second slice makes it 64 and costs
// betree-mixed +17 % allocated bytes per op in message arrays alone.
func TestMessageSize(t *testing.T) {
	if sz := unsafe.Sizeof(message{}); sz != 40 {
		t.Fatalf("message is %d bytes, want 40", sz)
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
	level := map[nodeID]int{tr.core.Root(): 0}
	var live, dead [2]int
	for _, n := range tr.nodes[1:] {
		if n.Leaf {
			continue
		}
		if n.ID != tr.core.Root() {
			level[n.ID] = 1 // any interior below the root
		}
		for _, buf := range n.bufs {
			for i := range buf {
				if buf[i].del {
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
	for _, n := range tr.nodes[1:] {
		buffers += len(n.bufs)
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
	for _, n := range tr.nodes[1:] {
		entryLen += len(n.entries)
		entryCap += cap(n.entries)
		for _, buf := range n.bufs {
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

// BenchmarkBufferInsert is the layer-level number behind the partition:
// upserting uniformly random keys into one interior node shaped like the
// benchmark tree's root (33 children, a budget of 2,080 messages of
// 4,000 accounted bytes), draining the busiest child whenever the node
// goes over — on the partitioned node and on the flat sorted array it
// replaced, whose every insert shifts half the buffer.
func BenchmarkBufferInsert(b *testing.B) {
	const (
		children = 33
		keySpace = 1 << 20
		vlen     = 4000
		budget   = 2080 * (msgOverhead + kv.KeySize + vlen)
	)
	seps := make([][]byte, children-1)
	for i := range seps {
		seps[i] = kv.EncodeKey(uint64(i+1) * keySpace / children)
	}
	key := make([]byte, kv.KeySize)
	run := func(b *testing.B, upsert func(m message)) {
		rng := sim.NewRNG(1)
		next := func(seq int) message {
			kv.AppendKey(key, rng.Uint64n(keySpace))
			return makeMessage(key, uint64(seq), vlen, false)
		}
		for i := 0; i < 3*2080; i++ { // to the budget, and past load-time growth
			upsert(next(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			upsert(next(i))
		}
	}
	b.Run("partitioned", func(b *testing.B) {
		var mm mem
		n := &node{seps: seps, Node: cowtree.Node{Children: make([]nodeID, children)},
			bufs: make([][]message, children), bufSizes: make([]int, children)}
		n.refreshSepCache()
		run(b, func(m message) {
			n.bufInsert(&mm, m, nil, false)
			for n.bufBytes > budget {
				ci, size := n.busiestChild()
				dropBuffer(&mm, n, ci, size)
			}
		})
	})
	b.Run("flat", func(b *testing.B) {
		var mm mem
		f := &flatNode{seps: seps}
		run(b, func(m message) {
			f.bufInsert(&mm, m, nil, false)
			for f.bufBytes > budget {
				_, start, end, size := f.busiest()
				f.remove(start, end, size)
			}
		})
	})
}
