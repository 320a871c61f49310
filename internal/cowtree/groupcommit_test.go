package cowtree

import (
	"testing"
	"time"

	"ptsbench/internal/faultdev"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// groupPut writes one key through the Core's write bracket, the path the
// real engines take: BeginWrite, the leaf insert, AppendJournal (which
// defers its sync while a group commit is open) and EndWrite (which
// starts a checkpoint when one is due).
func (t *stubTree) groupPut(now sim.Duration, key uint64, val []byte) (sim.Duration, error) {
	var kb [kv.KeySize]byte
	kv.AppendKey(kb[:], key)
	now, seq, valueLen, err := t.Core.BeginWrite(now, kb[:], val, 0)
	if err != nil {
		return now, err
	}
	leaf := t.descend(key)
	if now, err = t.Core.Load(now, &leaf.Node); err != nil {
		return now, err
	}
	t.insertLeaf(leaf, key, val, seq)
	if now, err = t.Core.AppendJournal(now, seq, kb[:], val, valueLen, false); err != nil {
		return now, err
	}
	return t.Core.EndWrite(now, len(kb), valueLen)
}

// TestCheckpointDueInsideGroupCommit pins the group-commit durability
// contract when a checkpoint falls due while the group is open: a group
// of writes is acknowledged by EndGroupCommit's one sync, so a power cut
// after it — before the checkpoint job commits — must recover every one
// of them. A checkpoint that rotated the journal inside the group would
// leave the group's first records unsynced in the old segment, while the
// sync covers only the new one.
func TestCheckpointDueInsideGroupCommit(t *testing.T) {
	fs, fd, err := stubFaultEnv(faultdev.Plan{Seed: 1, DropProb: 1}) // every unsynced write is lost
	if err != nil {
		t.Fatal(err)
	}
	cfg := stubConfig(time.Hour, 1) // no checkpoint until the group; one page per job step
	cfg.JournalSync = true
	tr, err := openStub(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Duration
	model := map[uint64][]byte{}
	rng := sim.NewRNG(5)
	for i := 0; i < 200; i++ { // dirty enough leaves that the job outlives the group
		k := rng.Uint64n(1 << 20)
		v := val(1, k)
		if now, err = tr.put(now, k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}

	tr.cfg.CheckpointInterval = 0 // due at every write from here on
	before := tr.journal.Name()
	tr.Core.BeginGroupCommit()
	for k := uint64(1 << 21); k < 1<<21+8; k++ {
		v := val(2, k)
		if now, err = tr.groupPut(now, k, v); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	if now, err = tr.Core.EndGroupCommit(now); err != nil {
		t.Fatal(err)
	}
	if tr.journal.Name() == before || tr.ckptW.QueueLen() == 0 {
		t.Fatalf("no checkpoint job pending after the group (journal %s -> %s, queue %d): the scenario misses its window",
			before, tr.journal.Name(), tr.ckptW.QueueLen())
	}

	fd.PowerCut()
	if _, err := fd.PowerOn(); err != nil {
		t.Fatal(err)
	}
	re, _, err := recoverStub(fs, cfg, now)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range model {
		if got, ok := re.get(k); !ok || string(got) != string(v) {
			t.Errorf("acknowledged key %d after recovery: %q ok=%v, want %q", k, got, ok, v)
		}
	}
}
