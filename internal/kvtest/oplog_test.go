package kvtest_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	_ "ptsbench/internal/engine/all"
	"ptsbench/internal/kvtest"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
	"ptsbench/internal/store"
)

// TestOpLog covers the one op-log rule every verifier draws from: the
// key-space default and the rejections, determinism per seed, ids and
// the kind mix, both value shapes, and Apply on a real engine.
func TestOpLog(t *testing.T) {
	t.Run("Validate", func(t *testing.T) {
		for _, c := range []struct{ ops, keys int }{{40, 16}, {400, 50}} {
			l, err := kvtest.OpLog{Ops: c.ops}.Validate()
			if err != nil || l.Keys != c.keys {
				t.Errorf("ops %d: keys %d (err %v), want %d", c.ops, l.Keys, err, c.keys)
			}
		}
		for _, bad := range []kvtest.OpLog{{Ops: 0}, {Ops: -1}, {Ops: 10, Keys: -1}} {
			if _, err := bad.Validate(); err == nil {
				t.Errorf("bad log validated: %+v", bad)
			}
		}
		// crash and devdiff wrap these texts; their CLI errors keep them.
		for bad, want := range map[kvtest.OpLog]string{
			{Ops: -1}:           "ops must be positive (got -1)",
			{Ops: 10, Keys: -1}: "keys must be positive (got -1)",
		} {
			if _, err := bad.Validate(); err == nil || err.Error() != want {
				t.Errorf("%+v: error %v, want %q", bad, err, want)
			}
		}
	})

	l := kvtest.OpLog{Ops: 20000, Keys: 300, GetPct: 15, DeletePct: 25, Tag: 0xABCD}
	ops := l.Gen(sim.NewRNG(7))

	t.Run("SameSeedSameLog", func(t *testing.T) {
		if !reflect.DeepEqual(ops, l.Gen(sim.NewRNG(7))) {
			t.Fatal("one seed drew two logs")
		}
		if reflect.DeepEqual(ops, l.Gen(sim.NewRNG(8))) {
			t.Fatal("two seeds drew one log")
		}
	})

	t.Run("IDsAndMix", func(t *testing.T) {
		counts := map[store.OpKind]int{}
		for i, op := range ops {
			if op.ID >= uint64(l.Keys) {
				t.Fatalf("op %d: id %d outside %d keys", i, op.ID, l.Keys)
			}
			counts[op.Kind]++
		}
		for kind, pct := range map[store.OpKind]int{store.Get: 15, store.Delete: 25, store.Put: 60} {
			if got := counts[kind] * 100 / len(ops); got < pct-2 || got > pct+2 {
				t.Errorf("kind %d: %d %%, want %d %%", kind, got, pct)
			}
		}
	})

	t.Run("Values", func(t *testing.T) {
		acct := l
		acct.ValueLen = 100
		for i, op := range ops {
			if op.Kind != store.Put {
				if op.Val != nil {
					t.Fatalf("op %d: kind %d carries a value", i, op.Kind)
				}
				continue
			}
			le := binary.LittleEndian
			if len(op.Val) != 24 || le.Uint64(op.Val) != op.ID ||
				le.Uint64(op.Val[8:]) != uint64(i) || le.Uint64(op.Val[16:]) != l.Tag {
				t.Fatalf("op %d: value %x does not decode to (id %d, index %d, tag %#x)", i, op.Val, op.ID, i, l.Tag)
			}
		}
		for i, op := range acct.Gen(sim.NewRNG(7)) {
			if op.Val != nil {
				t.Fatalf("op %d: accounting-mode %d carries a value", i, op.Kind)
			}
		}
	})

	t.Run("Apply", func(t *testing.T) {
		layout := stack.Small("lsm", nil)
		layout.Content = true
		layout.RNG = sim.NewRNG(1)
		st, err := stack.Build(layout)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		put := kvtest.OpLog{Ops: 1, Keys: 4, Tag: 3}.Gen(sim.NewRNG(1))[0]
		if put.Kind != store.Put {
			t.Fatalf("a put-only log drew kind %d", put.Kind)
		}
		var now sim.Duration
		for _, c := range []struct {
			kind  store.OpKind
			found bool
		}{{store.Put, false}, {store.Get, true}, {store.Delete, false}, {store.Get, false}} {
			op := kvtest.Op{Kind: c.kind, ID: put.ID}
			if c.kind == store.Put {
				op = put
			}
			var val []byte
			var found bool
			if now, val, found, err = l.Apply(st.Engine, now, op); err != nil {
				t.Fatalf("%d: %v", c.kind, err)
			}
			if found != c.found || c.found && !bytes.Equal(val, put.Val) {
				t.Fatalf("%d: found=%v value %x, want found=%v value %x", c.kind, found, val, c.found, put.Val)
			}
		}
	})
}
