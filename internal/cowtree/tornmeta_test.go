package cowtree

import (
	"fmt"
	"testing"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/extfs"
	"ptsbench/internal/faultdev"
	"ptsbench/internal/flash"
	"ptsbench/internal/sim"
)

// These tests script a power cut that lands exactly on a checkpoint's
// metadata-page write, for each of the two double-buffered slots. The
// write is lost whole, so recovery must fall back to the other slot's
// checkpoint and rebuild the newest batch from the surviving journal
// segment (whose recycle was also cut away). A dry fault-free pass
// locates the metadata write in the device write log; the fault pass
// replays the identical script with the cut armed at that index.

// stubFaultEnv mounts extfs on a fault-injecting wrapper (the wrapper
// is the content authority; the inner blockdev keeps only counters).
func stubFaultEnv(plan faultdev.Plan) (*extfs.FS, *faultdev.Dev, error) {
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
		return nil, nil, err
	}
	fd := faultdev.Wrap(blockdev.New(ssd), plan)
	fs, err := extfs.Mount(fd, extfs.Options{})
	if err != nil {
		return nil, nil, err
	}
	return fs, fd, nil
}

func tornVal(cp, i int) []byte { return []byte(fmt.Sprintf("v%d-%d", cp, i)) }

// runMetaScript drives a stub tree through rounds of 8 puts each
// followed by an explicit checkpoint (the interval is set far out, so
// checkpoints happen only where the script says).
func runMetaScript(fs *extfs.FS, checkpoints int) (sim.Duration, error) {
	t, err := openStub(fs, stubConfig(time.Hour, 4))
	if err != nil {
		return 0, err
	}
	var now sim.Duration
	for cp := 1; cp <= checkpoints; cp++ {
		for i := 0; i < 8; i++ {
			if now, err = t.put(now, uint64(cp*100+i), tornVal(cp, i)); err != nil {
				return now, err
			}
		}
		if now, err = t.flushAll(now); err != nil {
			return now, err
		}
	}
	return now, nil
}

func TestTornMetaSlotRecovery(t *testing.T) {
	cases := []struct {
		name        string
		checkpoints int
		slot        string
	}{
		// Odd generations land in slot A, even in slot B; the cut takes
		// out the FINAL checkpoint's slot. With 3 checkpoints the torn
		// slot A still holds gen 1's stale record underneath (fallback
		// must prefer slot B's newer gen 2); with 2 checkpoints slot B
		// was being written for the first time and reads back as zeros.
		{"slot-A", 3, "stmeta-A"},
		{"slot-B", 2, "stmeta-B"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Dry pass: find the final write into the target slot file.
			fs, fd, err := stubFaultEnv(faultdev.Plan{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runMetaScript(fs, tc.checkpoints); err != nil {
				t.Fatal(err)
			}
			f, err := fs.Open(tc.slot)
			if err != nil {
				t.Fatalf("meta slot %s missing after script: %v", tc.slot, err)
			}
			exts := f.Extents()
			if len(exts) != 1 || exts[0][1] != 1 {
				t.Fatalf("meta slot %s not a single page: %v", tc.slot, exts)
			}
			var cutAt int64
			for i, w := range fd.WriteLog() {
				if w.Off == exts[0][0] {
					cutAt = int64(i + 1) // device writes are 1-indexed
				}
			}
			if cutAt == 0 {
				t.Fatalf("no write to %s in the device log", tc.slot)
			}

			// Fault pass: identical script, the metadata write lost whole.
			fs2, fd2, err := stubFaultEnv(faultdev.Plan{
				Seed:           1,
				CutAfterWrites: cutAt,
				CutKeepPages:   -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			now, err := runMetaScript(fs2, tc.checkpoints)
			if err != nil {
				t.Fatal(err)
			}
			if !fd2.Cut() {
				t.Fatal("cut never fired (write sequence diverged from dry pass)")
			}
			fd2.PowerCut()
			fd2.PowerOn()

			rt, _, err := recoverStub(fs2, stubConfig(time.Hour, 4), now)
			if err != nil {
				t.Fatalf("recovery after torn %s: %v", tc.slot, err)
			}
			// Batches up to N-1 come from the older slot's checkpoint
			// image; batch N from replaying the journal segment whose
			// recycle the cut also threw away.
			for cp := 1; cp <= tc.checkpoints; cp++ {
				for i := 0; i < 8; i++ {
					v, ok := rt.get(uint64(cp*100 + i))
					if !ok || string(v) != string(tornVal(cp, i)) {
						t.Fatalf("batch %d key %d lost after torn %s (got %q, ok=%v)",
							cp, cp*100+i, tc.slot, v, ok)
					}
				}
			}
		})
	}
}

// TestJournalIDCollisionAfterRecovery pins the journal-name regression:
// checkpoint metadata can predate journal segments that survived a cut
// (rotation committed, checkpoint didn't), and recovery must advance
// its name counter past every survivor instead of minting a colliding
// name and failing with ErrExist.
func TestJournalIDCollisionAfterRecovery(t *testing.T) {
	fs, err := stubEnv()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := openStub(fs, stubConfig(time.Hour, 4))
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Duration
	for i := 0; i < 8; i++ {
		if now, err = tree.put(now, uint64(i), tornVal(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint 1 commits metadata naming journal id 1.
	if now, err = tree.flushAll(now); err != nil {
		t.Fatal(err)
	}
	// Rotate the journal (as checkpoint 2 would) but never commit the
	// checkpoint: segment 2 exists on disk, metadata still says 1.
	if now, err = tree.put(now, 100, tornVal(9, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Core.NewCheckpointJob(); err != nil {
		t.Fatal(err)
	}
	// Recovery must replay both segments and start a journal whose name
	// does not collide with the surviving "sjournal-000002".
	rt, _, err := recoverStub(fs, stubConfig(time.Hour, 4), now)
	if err != nil {
		t.Fatalf("recovery with stranded journal segment: %v", err)
	}
	if v, ok := rt.get(100); !ok || string(v) != string(tornVal(9, 0)) {
		t.Fatalf("rotated-segment record lost (got %q, ok=%v)", v, ok)
	}
}
