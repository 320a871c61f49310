package betree

import (
	"bytes"
	"testing"
	"time"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// recoveryEnv builds a content-mode tree with synced journaling and
// small nodes (so buffers, flushes and splits all participate).
func recoveryEnv(t *testing.T, tweak func(*Config)) (*Tree, *extfs.FS) {
	t.Helper()
	tr, _, fs := testEnv(t, 32, true, func(c *Config) {
		smallNodes(c)
		c.JournalSync = true
		if tweak != nil {
			tweak(c)
		}
	})
	return tr, fs
}

func TestRecoverAfterCleanClose(t *testing.T) {
	tr, fs := recoveryEnv(t, nil)
	var now sim.Duration
	var err error
	want := map[uint64][]byte{}
	for id := uint64(0); id < 600; id++ {
		v := []byte{byte(id), byte(id >> 8)}
		want[id] = v
		now, err = tr.Put(now, kv.EncodeKey(id), v, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Close(now); err != nil {
		t.Fatal(err)
	}
	re, rnow, err := Recover(fs, tr.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rnow == 0 {
		t.Fatal("recovery should charge I/O time")
	}
	for id, v := range want {
		_, got, found, err := re.Get(rnow, kv.EncodeKey(id))
		if err != nil || !found {
			t.Fatalf("key %d lost after recovery: %v %v", id, found, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("key %d value corrupted: %v vs %v", id, got, v)
		}
	}
	if re.Depth() < 2 {
		t.Fatalf("recovered depth %d, want >= 2", re.Depth())
	}
	_, scanned, err := re.Scan(rnow, kv.EncodeKey(100), 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(scanned) != 50 {
		t.Fatalf("recovered scan returned %d entries", len(scanned))
	}
	for i, e := range scanned {
		if id, _ := kv.DecodeKey(e.Key); id != uint64(100+i) {
			t.Fatalf("recovered scan out of order at %d", i)
		}
	}
}

func TestRecoverAfterCrash(t *testing.T) {
	// Updates after the last checkpoint live only in the journal; the
	// checkpoint itself holds part of the data in interior buffers.
	tr, fs := recoveryEnv(t, nil)
	var now sim.Duration
	var err error
	for id := uint64(0); id < 300; id++ {
		now, err = tr.Put(now, kv.EncodeKey(id), []byte{1}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = tr.FlushAll(now) // checkpoint (buffers persisted in images)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 50; id++ {
		now, err = tr.Put(now, kv.EncodeKey(id), []byte{2}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(50); id < 80; id++ {
		now, err = tr.Delete(now, kv.EncodeKey(id))
		if err != nil {
			t.Fatal(err)
		}
	}
	// "Crash": no checkpoint, no close.
	re, rnow, err := Recover(fs, tr.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 300; id++ {
		_, got, found, err := re.Get(rnow, kv.EncodeKey(id))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case id < 50:
			if !found || got[0] != 2 {
				t.Fatalf("key %d: want post-crash value 2, got %v found=%v", id, got, found)
			}
		case id < 80:
			if found {
				t.Fatalf("key %d: deleted before crash but visible", id)
			}
		default:
			if !found || got[0] != 1 {
				t.Fatalf("key %d: want original value 1, got %v found=%v", id, got, found)
			}
		}
	}
}

func TestRecoveredTreeAcceptsWrites(t *testing.T) {
	tr, fs := recoveryEnv(t, nil)
	now, err := tr.Put(0, kv.EncodeKey(1), []byte("a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Close(now); err != nil {
		t.Fatal(err)
	}
	re, rnow, err := Recover(fs, tr.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rnow, err = re.Put(rnow, kv.EncodeKey(2), []byte("b"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.FlushAll(rnow); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[uint64]string{1: "a", 2: "b"} {
		_, got, found, err := re.Get(rnow, kv.EncodeKey(id))
		if err != nil || !found || string(got) != want {
			t.Fatalf("key %d: %q %v %v", id, got, found, err)
		}
	}
}

func TestRecoverRequiresContentMode(t *testing.T) {
	_, _, fs := testEnv(t, 16, false, nil)
	cfg := NewConfig(8 << 20)
	if _, _, err := Recover(fs, cfg, 0); err == nil {
		t.Fatal("recovery without content mode should fail")
	}
}

// TestRecoverWithoutMetaBootstraps: a crash before the first checkpoint
// leaves both meta slots empty. Recovery must not wedge the tree — it
// bootstraps an empty root, replays whatever journal survived, and
// commits a first real checkpoint so the next crash is ordinary.
func TestRecoverWithoutMetaBootstraps(t *testing.T) {
	_, _, fs := testEnv(t, 16, true, nil)
	cfg := NewConfig(8 << 20)
	cfg.Content = true
	tr, now, err := Recover(fs, cfg, 0)
	if err != nil {
		t.Fatalf("bootstrap recovery: %v", err)
	}
	if _, _, found, err := tr.Get(now+1, kv.EncodeKey(1)); err != nil || found {
		t.Fatalf("bootstrapped tree should be empty: found=%v err=%v", found, err)
	}
	if _, err := tr.Put(now+2, kv.EncodeKey(1), []byte("a"), 1); err != nil {
		t.Fatalf("put on bootstrapped tree: %v", err)
	}
	if _, got, found, err := tr.Get(now+3, kv.EncodeKey(1)); err != nil || !found || string(got) != "a" {
		t.Fatalf("key 1 after bootstrap put: %q %v %v", got, found, err)
	}
}

func TestMetaEncodeDecode(t *testing.T) {
	st := cowtree.Meta{Gen: 7, Seq: 1234, JournalID: 3, Root: fileExtent{Start: 99, Pages: 4}}
	got, err := cowtree.DecodeMeta(cowtree.EncodeMeta(&st, metaMagic), metaMagic, "betree")
	if err != nil {
		t.Fatal(err)
	}
	if *got != st {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, st)
	}
	enc := cowtree.EncodeMeta(&st, metaMagic)
	enc[5] ^= 0xFF
	if _, err := cowtree.DecodeMeta(enc, metaMagic, "betree"); err == nil {
		t.Fatal("corrupted metadata should fail")
	}
	if _, err := cowtree.DecodeMeta([]byte{1}, metaMagic, "betree"); err == nil {
		t.Fatal("short metadata should fail")
	}
}

// TestRecoverSingleLeafUpdateBetweenCheckpoints is the regression test
// for the checkpoint ancestor-closure bug: an update that dirties ONLY
// a leaf (the ε=1 direct-to-leaf path) must survive a checkpoint +
// crash + recovery. Before the fix, the checkpoint wrote the leaf to a
// new extent but committed metadata pointing at the unchanged old root
// image — whose child references still named the leaf's old extent —
// while recycling the journal that held the update: silent data loss.
func TestRecoverSingleLeafUpdateBetweenCheckpoints(t *testing.T) {
	for _, eps := range []float64{1.0, 0.6} {
		tr, fs := recoveryEnv(t, func(c *Config) { c.Epsilon = eps })
		var now sim.Duration
		var err error
		for id := uint64(0); id < 500; id++ {
			now, err = tr.Put(now, kv.EncodeKey(id), []byte{1}, 0)
			if err != nil {
				t.Fatal(err)
			}
		}
		now, err = tr.FlushAll(now) // checkpoint 1
		if err != nil {
			t.Fatal(err)
		}
		now, err = tr.Put(now, kv.EncodeKey(42), []byte{2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		now, err = tr.FlushAll(now) // checkpoint 2 covers the update
		if err != nil {
			t.Fatal(err)
		}
		_ = now
		re, rnow, err := Recover(fs, tr.cfg, 0)
		if err != nil {
			t.Fatalf("ε=%.1f: %v", eps, err)
		}
		_, got, found, err := re.Get(rnow, kv.EncodeKey(42))
		if err != nil || !found || got[0] != 2 {
			t.Fatalf("ε=%.1f: key 42 recovered %v found=%v err=%v, want generation 2",
				eps, got, found, err)
		}
	}
}

// TestRecoverAfterMidCheckpointSplits is the regression test for the
// checkpoint/split race: with a tiny checkpoint interval and a 1-page
// I/O chunk, foreground splits constantly overlap in-flight
// checkpoints. Before the fix, an in-job interior serialized after a
// concurrent split embedded a zero extent for the split's brand-new
// child, so Recover failed with "empty extent in tree walk" and the
// whole dataset was unreadable.
func TestRecoverAfterMidCheckpointSplits(t *testing.T) {
	tr, fs := recoveryEnv(t, func(c *Config) {
		c.CheckpointInterval = 2 * time.Millisecond
		c.ChunkPages = 1
	})
	var now sim.Duration
	var err error
	for id := uint64(0); id < 6000; id++ {
		now, err = tr.Put(now, kv.EncodeKey(id), []byte{byte(id)}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	now = tr.Quiesce(now)
	_ = now
	re, rnow, err := Recover(fs, tr.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 6000; id += 101 {
		_, got, found, err := re.Get(rnow, kv.EncodeKey(id))
		if err != nil || !found || got[0] != byte(id) {
			t.Fatalf("key %d: %v found=%v err=%v", id, got, found, err)
		}
	}
}

// TestRecoverAfterMidCheckpointRootGrowth pins the commit-path fix for
// root growth during an in-flight checkpoint: the new root is an
// ANCESTOR of every snapshot node, so neither the snapshot closure nor
// writeSubtreeClean (descendants only) writes it. Before the fix,
// writeMeta silently declined (no on-disk root image) while the commit
// still released the previous checkpoint's extents and recycled the
// journal — data loss across the next crash. The test asserts the race
// actually occurred (white-box: the root id changed while a checkpoint
// job was queued), then crash-recovers and verifies every key.
func TestRecoverAfterMidCheckpointRootGrowth(t *testing.T) {
	tr, fs := recoveryEnv(t, func(c *Config) {
		c.CheckpointInterval = time.Hour // only the manual checkpoint below
		c.ChunkPages = 1
	})
	var now sim.Duration
	var err error
	// Some initial data, then start a checkpoint WITHOUT stepping it —
	// deterministic in-flight state.
	var id uint64
	for ; id < 200; id++ {
		now, err = tr.Put(now, kv.EncodeKey(id), []byte{byte(id)}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	// The job snapshots the dirty set and rotates the journal now; it is
	// submitted only after the root has grown, so the commit provably
	// runs against a root the snapshot has never seen (submitting first
	// would let the foreground Pump drain the job before the growth).
	job, err := tr.core.NewCheckpointJob()
	if err != nil || job == nil {
		t.Fatalf("no checkpoint job: %v", err)
	}
	// Grow the root while the checkpoint is logically in flight.
	rootBefore := tr.core.Root()
	for tr.core.Root() == rootBefore {
		if id > 100000 {
			t.Fatal("root never grew; tighten the config")
		}
		now, err = tr.Put(now, kv.EncodeKey(id), []byte{byte(id)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		id++
	}
	total := id
	tr.core.Worker().Submit(job)
	now = tr.Quiesce(now) // the racy checkpoint commits here
	_ = now
	re, rnow, err := Recover(fs, tr.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < total; id += 23 {
		_, got, found, err := re.Get(rnow, kv.EncodeKey(id))
		if err != nil || !found || got[0] != byte(id) {
			t.Fatalf("key %d: %v found=%v err=%v", id, got, found, err)
		}
	}
}

func TestRecoverySequenceGuard(t *testing.T) {
	// A checkpointed-newer version must not be regressed by an older
	// journal record that survives in a stale segment, and a journal
	// record newer than a buffered version must win.
	tr, fs := recoveryEnv(t, nil)
	var now sim.Duration
	var err error
	for id := uint64(0); id < 200; id++ {
		now, err = tr.Put(now, kv.EncodeKey(id), []byte{1}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite a key twice with a checkpoint between: the journal holds
	// only the newest generation, the checkpoint the middle one.
	now, err = tr.Put(now, kv.EncodeKey(7), []byte{2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	now, err = tr.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	now, err = tr.Put(now, kv.EncodeKey(7), []byte{3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = now
	re, rnow, err := Recover(fs, tr.cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, got, found, err := re.Get(rnow, kv.EncodeKey(7))
	if err != nil || !found || got[0] != 3 {
		t.Fatalf("key 7 after recovery: %v found=%v err=%v, want value 3", got, found, err)
	}
}
