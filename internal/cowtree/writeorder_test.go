package cowtree

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptsbench/internal/sim"
)

// TestCheckpointWriteOrder pins, write by write, what one checkpoint job
// writes while foreground work runs between its steps: every node image
// as (id, extent), in order, against
// testdata/golden_checkpoint_writes.txt. Between Job.Step calls the
// foreground dirties fresh leaves, re-dirties leaves the job has already
// written, bursts keys into one narrow range (leaf splits that climb
// into the interiors) and once grows the root. So the sequence shows the
// snapshot's bottom-up order, writeSubtreeClean reaching split-born and
// re-dirtied children, and the commit's write of a root the snapshot
// never saw. A change to dirty tracking or to the checkpoint job that is
// meant to be behaviour-neutral leaves the fixture byte-identical.
//
// Regenerate (only when a deliberate behavioural change is made):
//
//	go test ./internal/cowtree -run TestCheckpointWriteOrder -update-golden
func TestCheckpointWriteOrder(t *testing.T) {
	fs, err := stubEnv()
	if err != nil {
		t.Fatal(err)
	}
	cfg := stubConfig(time.Hour, 1) // manual checkpoints, one page per step
	tr, err := openStub(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Duration
	model := map[uint64][]byte{}
	put := func(k, gen uint64) {
		t.Helper()
		v := val(gen, k)
		if now, err = tr.put(now, k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	const space = 1 << 20
	rng := sim.NewRNG(11)
	for i := 0; i < 300; i++ {
		put(rng.Uint64n(space), 1)
	}
	if now, err = tr.flushAll(now); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // the snapshot: these leaves and their spines
		put(rng.Uint64n(space), 2)
	}

	// An image's id is known when the core serializes it, its new extent
	// once the write returns: the next image, or the end of the step.
	var lines []string
	step, pending := 0, NilNode
	settle := func() {
		if pending != NilNode {
			d := tr.nodes[pending].Disk
			lines = append(lines, fmt.Sprintf("step %d: node %d -> %d+%d", step, pending, d.Start, d.Pages))
			pending = NilNode
		}
	}
	writes := map[NodeID]int{}
	var lastLeaf *stubNode
	record := func(id NodeID) {
		settle()
		pending = id
		writes[id]++
		if n := tr.nodes[id]; n.Leaf && len(n.keys) > 0 {
			lastLeaf = n
		}
	}

	job, err := tr.Core.NewCheckpointJob()
	if err != nil || job == nil {
		t.Fatalf("no checkpoint job: %v", err)
	}
	inSnapshot := map[NodeID]bool{}
	for _, id := range job.ids {
		inSnapshot[id] = true
	}
	rootBefore := tr.Core.Root()
	redirtied := 0
	for done := false; !done; step++ {
		tr.imaged = record
		now, done = job.Step(now)
		settle()
		tr.imaged = nil
		if err := tr.Core.fatal; err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		switch {
		case step == 12: // grow the root under the running job
			base := rng.Uint64n(space)
			for k := base; tr.Core.Root() == rootBefore; k++ {
				if k > base+100000 {
					t.Fatal("root never grew; tighten the stub limits")
				}
				put(k, 6)
			}
		case step%3 == 0: // a fresh dirty leaf
			put(rng.Uint64n(space), 3)
		case step%3 == 1 && lastLeaf != nil: // re-dirty a leaf the job wrote
			put(lastLeaf.keys[0], 4)
			redirtied++
		default: // a burst into one narrow range
			base := rng.Uint64n(space)
			for j := uint64(0); j < 12; j++ {
				put(base+j, 5)
			}
		}
	}

	// The scenario must exercise what it claims to pin.
	twice, fresh := 0, 0
	for id, n := range writes {
		if n > 1 {
			twice++
		}
		if !inSnapshot[id] {
			fresh++
		}
	}
	if tr.Core.Root() == rootBefore || writes[tr.Core.Root()] == 0 || redirtied == 0 || twice == 0 || fresh == 0 {
		t.Fatalf("scenario too tame: root %d -> %d (written %d times), %d re-dirtied, %d nodes written twice, %d outside the snapshot",
			rootBefore, tr.Core.Root(), writes[tr.Core.Root()], redirtied, twice, fresh)
	}
	if err := tr.Core.Check(); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("snapshot=%d steps=%d writes=%d twice=%d outside-snapshot=%d root=%d->%d\n%s\n",
		len(inSnapshot), step, len(lines), twice, fresh, rootBefore, tr.Core.Root(), strings.Join(lines, "\n"))

	// The committed checkpoint plus the journal written since hold
	// everything.
	re, _, err := recoverStub(fs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range model {
		if got, ok := re.get(k); !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %d after recovery: %q ok=%v want %q", k, got, ok, v)
		}
	}

	path := filepath.Join("testdata", "golden_checkpoint_writes.txt")
	if f := flag.Lookup("update-golden"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d writes)", path, len(lines))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("checkpoint writes diverge from %s at line %d\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("checkpoint writes diverge from %s in length: %d lines, want %d", path, len(gl), len(wl))
}
