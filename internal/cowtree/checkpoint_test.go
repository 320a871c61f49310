package cowtree

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ptsbench/internal/sim"
)

// These tests pin the checkpoint/recovery discipline engine-agnostically
// over the stub engine (stub_test.go): the three crash-recovery bugs PR 3
// fixed twice — once per engine copy — plus a randomized
// checkpoint-overlap stress test. The same scenarios also run through
// the real engines' recovery suites (internal/btree, internal/betree);
// here they guard the shared core itself, so a future engine inherits
// the discipline without porting the tests.

func val(g, k uint64) []byte { return []byte(fmt.Sprintf("g%d-k%d", g, k)) }

// TestStubLeafOnlyDirtySnapshot is the ancestor-closure regression: an
// update that dirties ONLY a leaf must survive checkpoint + crash +
// recovery. Without the closure, the second checkpoint would rewrite the
// leaf but commit metadata pointing at the unchanged old root image —
// whose child references still name the leaf's old extent — while
// recycling the journal holding the update: silent data loss.
func TestStubLeafOnlyDirtySnapshot(t *testing.T) {
	fs, err := stubEnv()
	if err != nil {
		t.Fatal(err)
	}
	cfg := stubConfig(time.Hour, 32) // manual checkpoints only
	tr, err := openStub(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Duration
	for k := uint64(0); k < 200; k++ {
		if now, err = tr.put(now, k, val(1, k)); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = tr.flushAll(now); err != nil { // checkpoint 1
		t.Fatal(err)
	}
	if now, err = tr.put(now, 42, val(2, 42)); err != nil {
		t.Fatal(err)
	}
	if now, err = tr.flushAll(now); err != nil { // checkpoint 2: one dirty leaf
		t.Fatal(err)
	}
	_ = now
	re, rnow, err := recoverStub(fs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = rnow
	got, ok := re.get(42)
	if !ok || !bytes.Equal(got, val(2, 42)) {
		t.Fatalf("key 42 after recovery: %q ok=%v, want generation 2", got, ok)
	}
	for k := uint64(0); k < 200; k++ {
		if k == 42 {
			continue
		}
		if got, ok := re.get(k); !ok || !bytes.Equal(got, val(1, k)) {
			t.Fatalf("key %d after recovery: %q ok=%v", k, got, ok)
		}
	}
}

// TestStubSplitDuringCheckpoint is the checkpoint/split-race regression:
// with a tiny checkpoint interval and a 1-page I/O chunk, foreground
// splits constantly overlap in-flight checkpoints. Without
// writeSubtreeClean, an in-job interior serialized after a concurrent
// split embeds a zero extent for the split's never-written child and
// recovery fails with "empty extent in tree walk".
func TestStubSplitDuringCheckpoint(t *testing.T) {
	fs, err := stubEnv()
	if err != nil {
		t.Fatal(err)
	}
	cfg := stubConfig(50*time.Microsecond, 1)
	tr, err := openStub(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Duration
	const keys = 2000
	for k := uint64(0); k < keys; k++ {
		if now, err = tr.put(now, k, val(1, k)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Core.IO().Checkpoints < 2 {
		t.Fatalf("only %d checkpoints ran; the race never happened", tr.Core.IO().Checkpoints)
	}
	now = tr.Core.Quiesce(now)
	_ = now
	re, _, err := recoverStub(fs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k += 13 {
		if got, ok := re.get(k); !ok || !bytes.Equal(got, val(1, k)) {
			t.Fatalf("key %d after recovery: %q ok=%v", k, got, ok)
		}
	}
}

// TestStubRootGrowthDuringCheckpoint is the commit-path regression for
// root growth during an in-flight checkpoint: the new root is an
// ANCESTOR of every snapshot node, so neither the snapshot closure nor
// writeSubtreeClean (descendants only) writes it. Without the commit's
// root-spine write, writeMeta silently declines (no on-disk root image)
// while the commit still releases the previous checkpoint's extents and
// recycles the journal — data loss across the next crash. The test
// asserts the race actually occurred (white-box: the root id changed
// while a checkpoint job was held), then crash-recovers and verifies
// every key.
func TestStubRootGrowthDuringCheckpoint(t *testing.T) {
	fs, err := stubEnv()
	if err != nil {
		t.Fatal(err)
	}
	cfg := stubConfig(time.Hour, 1)
	tr, err := openStub(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Duration
	var k uint64
	for ; k < 30; k++ {
		if now, err = tr.put(now, k, val(1, k)); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot the dirty set and rotate the journal now; submit only
	// after the root has grown, so the commit provably runs against a
	// root the snapshot has never seen.
	job, err := tr.Core.NewCheckpointJob()
	if err != nil || job == nil {
		t.Fatalf("no checkpoint job: %v", err)
	}
	rootBefore := tr.Core.Root()
	for tr.Core.Root() == rootBefore {
		if k > 100000 {
			t.Fatal("root never grew; tighten the stub limits")
		}
		if now, err = tr.put(now, k, val(1, k)); err != nil {
			t.Fatal(err)
		}
		k++
	}
	total := k
	tr.Core.ckptW.Submit(job)
	now = tr.Core.Quiesce(now) // the racy checkpoint commits here
	_ = now
	re, _, err := recoverStub(fs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < total; k++ {
		if got, ok := re.get(k); !ok || !bytes.Equal(got, val(1, k)) {
			t.Fatalf("key %d after recovery: %q ok=%v", k, got, ok)
		}
	}
}

// TestStubCheckpointOverlapStress drives random update/overwrite
// workloads against constantly overlapping checkpoints (tiny interval,
// 1-page chunks), crashes at an arbitrary point, recovers, and verifies
// every key against a reference model — including that the recovered
// tree accepts further writes and another recovery round-trips them. The
// tight-cache runs hold about three stub leaves, so most puts evict and
// write back a leaf while a checkpoint job is in flight: the job then
// finds snapshot nodes already written (Step's "evicted and written in
// the meantime" branch) and eviction re-dirties parents under it.
func TestStubCheckpointOverlapStress(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		for _, cache := range []int64{1 << 30, 768} {
			t.Run(fmt.Sprintf("seed=%d/cache=%d", seed, cache), func(t *testing.T) {
				stubOverlapStress(t, seed, cache)
			})
		}
	}
}

func stubOverlapStress(t *testing.T, seed uint64, cache int64) {
	tight := cache < 1<<20
	check := func(tr *stubTree, when string) {
		t.Helper()
		if err := tr.Core.Check(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	fs, err := stubEnv()
	if err != nil {
		t.Fatal(err)
	}
	cfg := stubConfig(80*time.Microsecond, 1)
	cfg.CacheBytes = cache
	tr, err := openStub(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	model := map[uint64][]byte{}
	var now sim.Duration
	const space = 700
	for op := 0; op < 4000; op++ {
		k := rng.Uint64n(space)
		v := val(uint64(op), k)
		model[k] = v
		if now, err = tr.put(now, k, v); err != nil {
			t.Fatal(err)
		}
		if op%1000 == 999 {
			// Occasionally force a synchronous full checkpoint.
			if now, err = tr.flushAll(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.Core.IO().Checkpoints < 3 {
		t.Fatalf("only %d checkpoints ran; stress shape wrong", tr.Core.IO().Checkpoints)
	}
	if io := tr.Core.IO(); tight && (io.EvictionWrites < 1000 || io.CacheMisses < 1000) {
		t.Fatalf("tight cache barely evicted: %+v", io)
	}
	check(tr, "before the crash")
	// Crash (no quiesce, no close) and recover.
	re, rnow, err := recoverStub(fs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range model {
		if got, ok := re.get(k); !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %d after recovery: %q ok=%v want %q", k, got, ok, v)
		}
	}
	check(re, "after recovery")
	// The recovered tree keeps working and survives another cycle.
	for op := 0; op < 300; op++ {
		k := rng.Uint64n(space)
		v := val(uint64(90000+op), k)
		model[k] = v
		if rnow, err = re.put(rnow, k, v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err = re.flushAll(rnow); err != nil {
		t.Fatal(err)
	}
	check(re, "after the second round")
	re2, _, err := recoverStub(fs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range model {
		if got, ok := re2.get(k); !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %d after second recovery: %q ok=%v want %q", k, got, ok, v)
		}
	}
}
