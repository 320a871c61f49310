package kvtest

import (
	"encoding/binary"
	"fmt"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// OpLog declares a verifier's seeded op log — the one rule the crash
// harness, the sim-vs-file differential checker and this suite draw
// their operations by, so any failure replays from its seed.
type OpLog struct {
	// Ops is the log length. Keys bounds the key space the ids are drawn
	// from; Validate defaults it to max(16, Ops/8).
	Ops, Keys int
	// GetPct and DeletePct are the percentages of gets and deletes; the
	// rest are puts.
	GetPct, DeletePct uint64
	// ValueLen, when positive, makes every put an accounting-mode put of
	// that many bytes (nil Val). When 0, each put carries a 24-byte
	// self-describing value — key id, op index, Tag — so any stale or
	// cross-wired value is visible on inspection.
	ValueLen int
	Tag      uint64
}

// Op is one operation of a log. Val is set only on a content-mode put.
type Op struct {
	Kind store.OpKind
	ID   uint64
	Val  []byte
}

// Validate fills the key-space default and rejects an empty log or key space.
func (l OpLog) Validate() (OpLog, error) {
	if l.Ops < 1 {
		return l, fmt.Errorf("ops must be positive (got %d)", l.Ops)
	}
	if l.Keys == 0 {
		l.Keys = max(16, l.Ops/8)
	}
	if l.Keys < 1 {
		return l, fmt.Errorf("keys must be positive (got %d)", l.Keys)
	}
	return l, nil
}

// Gen draws the log from rng: for each op its key id, then its kind.
func (l OpLog) Gen(rng *sim.RNG) []Op {
	ops := make([]Op, l.Ops)
	for i := range ops {
		op := &ops[i]
		op.ID = rng.Uint64n(uint64(l.Keys))
		switch r := rng.Uint64n(100); {
		case r < l.GetPct:
			op.Kind = store.Get
		case r < l.GetPct+l.DeletePct:
			op.Kind = store.Delete
		default:
			op.Kind = store.Put
			if l.ValueLen == 0 {
				op.Val = make([]byte, 24)
				binary.LittleEndian.PutUint64(op.Val[0:], op.ID)
				binary.LittleEndian.PutUint64(op.Val[8:], uint64(i))
				binary.LittleEndian.PutUint64(op.Val[16:], l.Tag)
			}
		}
	}
	return ops
}

// Apply runs op on e at now. val and found are a get's result.
func (l OpLog) Apply(e kv.Engine, now sim.Duration, op Op) (done sim.Duration, val []byte, found bool, err error) {
	key := kv.EncodeKey(op.ID)
	switch op.Kind {
	case store.Get:
		return e.Get(now, key)
	case store.Delete:
		done, err = e.Delete(now, key)
	default:
		done, err = e.Put(now, key, op.Val, l.ValueLen)
	}
	return done, nil, false, err
}
