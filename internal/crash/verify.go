package crash

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ptsbench/internal/kv"
	"ptsbench/internal/kvtest"
	"ptsbench/internal/replica"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
	"ptsbench/internal/store"
)

// verifyFileImage compares a stack's backing file, page by page,
// against the fault wrapper's resolved durable image (zeros where
// nothing durable was ever written); the sim device has no file and
// passes. Reads go straight to the filedev — below the fault wrapper,
// whose own content store must not be allowed to mask a divergence in
// the file.
func verifyFileImage(st *stack.Stack) error {
	if st.File == nil {
		return nil
	}
	ps := st.File.PageSize()
	zero := make([]byte, ps)
	buf := make([]byte, ps)
	for lba := int64(0); lba < st.File.Pages(); lba++ {
		if _, err := st.File.ReadErr(0, lba, 1, buf); err != nil {
			return fmt.Errorf("reading the backing file back: %w", err)
		}
		want := st.Fault.DurablePage(lba)
		if want == nil {
			want = zero
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("backing file diverges from the durable image at LBA %d", lba)
		}
	}
	return nil
}

// readBatch point-reads ids[start:start+batchSize) through the store,
// 1µs apart after now, and holds every result to the key's allowed
// states. Completions come back in submission order, so position j of
// the batch is ids[start+j]. Returns the later of now and the time the
// last read finished.
func readBatch(st *store.Store, model *kvtest.Model, ids []uint64, start int, now sim.Duration) (sim.Duration, error) {
	end := min(start+batchSize, len(ids))
	for j := start; j < end; j++ {
		st.Submit(store.Op{
			Kind:   store.Get,
			Submit: now + sim.Duration(j+1)*1000,
			KeyID:  ids[j],
			Key:    kv.EncodeKey(ids[j]),
		})
	}
	comps := st.Pump()
	if len(comps) != end-start {
		return now, fmt.Errorf("store returned %d completions for %d gets", len(comps), end-start)
	}
	for j, c := range comps {
		id := ids[start+j]
		if c.Err != nil {
			return now, fmt.Errorf("get key %d: %w", id, c.Err)
		}
		if !model.Check(id, c.Value, c.Found) {
			return now, fmt.Errorf("key %d outside its allowed states (found=%v, ambiguous=%v)",
				id, c.Found, model.Ambiguous(id))
		}
		now = max(now, c.Done)
	}
	return now, nil
}

// verify checks the store a trial ends with against the model, from
// virtual time now on: point reads for every tracked key, one full
// merged scan (ordered, members allowed, certain keys present), and a
// write/flush/read cycle of fresh keys.
func verify(rep *Report, rst *store.Store, model *kvtest.Model, spec Spec, now sim.Duration) error {
	ids := model.IDs()
	for _, id := range ids {
		if model.Ambiguous(id) {
			rep.Ambiguous++
		}
	}
	// Every batch is timed off the same now rather than chained to the
	// batch before it: that is the timeline every committed seed's
	// post-recovery writes were recorded on.
	for start := 0; start < len(ids); start += batchSize {
		if _, err := readBatch(rst, model, ids, start, now); err != nil {
			return fmt.Errorf("recovered store: %w", err)
		}
	}
	rep.Checked = len(ids)

	// One full merged scan: strictly ordered, every entry an allowed
	// member with an allowed value, every certainly-present key
	// surfaced.
	scanNow := now + sim.Duration(len(ids)+2)*1000
	_, entries, err := rst.Scan(scanNow, kv.EncodeKey(0), spec.Keys+16)
	if err != nil {
		return fmt.Errorf("recovered scan: %w", err)
	}
	seen := make(map[uint64]bool, len(entries))
	var prev []byte
	for i, e := range entries {
		if i > 0 && kv.CompareKeys(prev, e.Key) >= 0 {
			return fmt.Errorf("recovered scan out of order at entry %d", i)
		}
		prev = append(prev[:0], e.Key...)
		id, err := kv.DecodeKey(e.Key)
		if err != nil {
			return fmt.Errorf("recovered scan entry %d: %w", i, err)
		}
		if !model.MayContain(id) {
			return fmt.Errorf("recovered scan surfaced key %d, which must be absent", id)
		}
		if !model.CheckValue(id, e.Value) {
			return fmt.Errorf("recovered scan key %d has a value outside its allowed set", id)
		}
		seen[id] = true
	}
	for _, id := range ids {
		if model.MustContain(id) && !seen[id] {
			return fmt.Errorf("recovered scan missing key %d, which must be present", id)
		}
	}
	rep.Scanned = len(entries)

	// The recovered store accepts, persists and re-serves new writes.
	postNow := scanNow + sim.Duration(spec.Keys)*1000
	const postKeys = 8
	postVal := func(j int) []byte {
		v := make([]byte, 16)
		binary.LittleEndian.PutUint64(v[0:], uint64(spec.Keys+j))
		binary.LittleEndian.PutUint64(v[8:], rep.Seed)
		return v
	}
	for j := 0; j < postKeys; j++ {
		rst.Submit(store.Op{
			Kind:   store.Put,
			Submit: postNow + sim.Duration(j+1)*1000,
			KeyID:  uint64(spec.Keys + j),
			Key:    kv.EncodeKey(uint64(spec.Keys + j)),
			Value:  postVal(j),
		})
	}
	for _, c := range rst.Pump() {
		if c.Err != nil {
			return fmt.Errorf("post-recovery put: %w", c.Err)
		}
		postNow = max(postNow, c.Done)
	}
	flushed, err := rst.FlushAll(postNow)
	if err != nil {
		return fmt.Errorf("post-recovery flush: %w", err)
	}
	for j := 0; j < postKeys; j++ {
		rst.Submit(store.Op{
			Kind:   store.Get,
			Submit: flushed + sim.Duration(j+1)*1000,
			KeyID:  uint64(spec.Keys + j),
			Key:    kv.EncodeKey(uint64(spec.Keys + j)),
		})
	}
	for j, c := range rst.Pump() {
		if c.Err != nil || !c.Found || !bytes.Equal(c.Value, postVal(j)) {
			return fmt.Errorf("post-recovery write %d lost or wrong (found=%v, err=%v)", j, c.Found, c.Err)
		}
	}
	return nil
}

// scanPage is verifyConverged's per-Scan window.
const scanPage = 128

// entryEqual compares two logical entries: key bytes, value bytes, and
// accounted length.
func entryEqual(a, b kv.Entry) bool {
	return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value) && a.ValueLen == b.ValueLen
}

// scanReplica pages one replica's full key space directly off its
// engine (below the group, so stale or diverged state cannot hide
// behind the serving rotation).
func scanReplica(g *replica.Group, r int, now sim.Duration) ([]kv.Entry, error) {
	sc, ok := g.Engine(r).(store.Scanner)
	if !ok {
		return nil, fmt.Errorf("replica %d engine does not support Scan", r)
	}
	var out []kv.Entry
	start := make([]byte, kv.KeySize)
	for {
		_, ents, err := sc.Scan(now, start, scanPage)
		if err != nil {
			return nil, fmt.Errorf("scanning replica %d: %w", r, err)
		}
		for _, e := range ents {
			out = append(out, kv.Entry{
				Key:      append([]byte(nil), e.Key...),
				Value:    append([]byte(nil), e.Value...),
				ValueLen: e.ValueLen,
			})
		}
		if len(ents) < scanPage {
			return out, nil
		}
		id, err := kv.DecodeKey(ents[len(ents)-1].Key)
		if err != nil {
			return nil, fmt.Errorf("replica %d surfaced an undecodable key: %w", r, err)
		}
		start = kv.EncodeKey(id + 1)
	}
}

// verifyConverged proves every replica of every group holds the exact
// same logical entries — key, value bytes, and accounted length.
func verifyConverged(groups []*replica.Group, now sim.Duration) error {
	for i, g := range groups {
		ref, err := scanReplica(g, 0, now)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		for r := 1; r < g.Replicas(); r++ {
			got, err := scanReplica(g, r, now)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if len(got) != len(ref) {
				return fmt.Errorf("shard %d: replica %d holds %d entries, replica 0 holds %d",
					i, r, len(got), len(ref))
			}
			for k := range ref {
				if !entryEqual(ref[k], got[k]) {
					return fmt.Errorf("shard %d: replica %d diverges from replica 0 at entry %d (key %x)",
						i, r, k, ref[k].Key)
				}
			}
		}
	}
	return nil
}
