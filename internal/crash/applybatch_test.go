package crash

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ptsbench/internal/kvtest"
	"ptsbench/internal/store"
)

// outcome is what the completion classifier does with one completion.
type outcome int

const (
	failsTrial outcome = iota // applyBatch returns an error
	exact                     // the write replaces the key's state
	ambiguous                 // the write joins the key's allowed states
	skipped                   // the read is not held to the model
	checked                   // the read is held to the model
)

// TestApplyBatchClassifies scripts single completions through the one
// classifier, for every scenario × {cut batch, any other batch} ×
// {victim shard, other shard} × {acknowledged, errored} × {put, delete,
// get}, and asserts the policy the scenarios' doc comments state: which
// cells are the fault window, what an acknowledged write in it is worth,
// and that everything outside it must be perfect.
func TestApplyBatchClassifies(t *testing.T) {
	const shards, victimShard = 2, 1
	keyOn := map[int]uint64{} // one key per shard
	for id := uint64(0); len(keyOn) < shards; id++ {
		if _, ok := keyOn[store.ShardOf(id, shards)]; !ok {
			keyOn[store.ShardOf(id, shards)] = id
		}
	}
	oldVal, newVal := []byte("old"), []byte("new")

	scenarios := []struct {
		sc *Scenario
		// Is a completion on the victim's shard in the fault window when
		// it arrives in the cut batch, and when in any other batch? (One
		// on another shard never is.)
		windowInCutBatch, windowElsewhere bool
		// ackedWrite is the worth of an acknowledged write in the window:
		// ambiguous when the machine that acknowledged it died, exact
		// when live replicas kept it.
		ackedWrite outcome
	}{
		{PowerCut, true, false, ambiguous},
		{ReplicaKill, true, false, exact},
		{ErrorPlan, true, true, exact},
	}
	bools := []bool{false, true}
	for _, s := range scenarios {
		for _, cutBatch := range bools {
			for _, onVictim := range bools {
				for _, errored := range bools {
					for _, kind := range []store.OpKind{store.Put, store.Delete, store.Get} {
						inWindow := onVictim && (cutBatch && s.windowInCutBatch || !cutBatch && s.windowElsewhere)
						var want outcome
						switch {
						case !inWindow && errored:
							want = failsTrial
						case kind == store.Get && inWindow:
							want = skipped
						case kind == store.Get:
							want = checked
						case !inWindow:
							want = exact
						case errored:
							want = ambiguous
						default:
							want = s.ackedWrite
						}
						name := fmt.Sprintf("%s/cutBatch=%v/onVictim=%v/errored=%v/%v", s.sc.Name, cutBatch, onVictim, errored, kind)
						t.Run(name, func(t *testing.T) {
							id := keyOn[1-victimShard]
							if onVictim {
								id = keyOn[victimShard]
							}
							model := kvtest.NewModel()
							model.Put(id, oldVal)
							ops := []kvtest.Op{{Kind: kind, ID: id, Val: newVal}}
							// The scripted read returns a value the model
							// does not allow, so a checked read fails the
							// trial and a skipped one cannot.
							comp := store.Completion{Seq: 0, Kind: kind, Found: true, Value: []byte("stale")}
							if errored {
								comp.Err = errors.New("injected")
							}
							err := applyBatch(s.sc, model, ops, []store.Completion{comp}, cutBatch, victimShard, shards)
							if (want == failsTrial || want == checked) != (err != nil) {
								t.Fatalf("applyBatch error = %v, want outcome %d", err, want)
							}
							if err != nil {
								return
							}
							holdsOld := model.Check(id, oldVal, true)
							holdsNew := model.Check(id, newVal, true)
							if kind == store.Delete {
								holdsNew = model.Check(id, nil, false)
							}
							switch want {
							case exact:
								if model.Ambiguous(id) || holdsOld || !holdsNew {
									t.Fatalf("write not exact: ambiguous=%v old=%v new=%v", model.Ambiguous(id), holdsOld, holdsNew)
								}
							case ambiguous:
								if !model.Ambiguous(id) || !holdsOld || !holdsNew {
									t.Fatalf("write not ambiguous: ambiguous=%v old=%v new=%v", model.Ambiguous(id), holdsOld, holdsNew)
								}
							case skipped:
								if v, ok := model.Value(id); !ok || !bytes.Equal(v, oldVal) {
									t.Fatalf("skipped read changed the model")
								}
							}
						})
					}
				}
			}
		}
	}

	// A checked read the model allows passes.
	model := kvtest.NewModel()
	model.Put(keyOn[0], oldVal)
	ok := store.Completion{Kind: store.Get, Found: true, Value: oldVal}
	if err := applyBatch(ReplicaKill, model, []kvtest.Op{{Kind: store.Get, ID: keyOn[0]}}, []store.Completion{ok}, false, victimShard, shards); err != nil {
		t.Fatalf("allowed read rejected: %v", err)
	}
}
