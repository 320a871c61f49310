package stack_test

import (
	"strings"
	"testing"

	"ptsbench/internal/engine"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
)

// named is the correctness-scale layout in content mode on the
// simulator, opening the engine registered as name with tunables.
func named(name string, tunables map[string]string) stack.Layout {
	l := stack.Small(name, tunables)
	l.Content = true
	l.RNG = sim.NewRNG(1)
	return l
}

// TestStackDefaults: zero geometry takes 4 KiB pages in 256-page erase
// blocks, and the simulated device keeps no bytes unless asked to.
func TestStackDefaults(t *testing.T) {
	st, err := stack.Build(stack.Layout{Flash: flash.Config{LogicalBytes: 1 << 30, Profile: flash.ProfileSSD1()}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Host.PageSize() != 4096 || st.Host.Pages() != 1<<30/4096 {
		t.Fatalf("geometry %d x %d, want %d x 4096", st.Host.Pages(), st.Host.PageSize(), 1<<30/4096)
	}
	if ppb := st.Sim.SSD().Config().PagesPerBlock; ppb != 256 {
		t.Fatalf("pages per block %d, want 256", ppb)
	}
	if st.Sim.ContentEnabled() {
		t.Fatal("content store should default off")
	}
	if st.Engine != nil {
		t.Fatal("a layout without Engine opened one")
	}
}

// TestStackAndEngineRoundTrip: a tunable reaches the engine Build opens
// — with the WAL synced on every put, one put is already device traffic.
func TestStackAndEngineRoundTrip(t *testing.T) {
	st, err := stack.Build(named("lsm", map[string]string{"wal_flush_bytes": "0"}))
	if err != nil {
		t.Fatal(err)
	}
	now, err := st.Engine.Put(0, kv.EncodeKey(1), []byte("hello"), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, v, found, err := st.Engine.Get(now, kv.EncodeKey(1))
	if err != nil || !found || string(v) != "hello" {
		t.Fatalf("Get: %q %v %v", v, found, err)
	}
	if st.Sim.Counters().BytesWritten == 0 {
		t.Fatal("WAL write should reach the device")
	}
}

// TestOpenEngineGeneric opens every registered engine by name, writes
// and reads back.
func TestOpenEngineGeneric(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			st, err := stack.Build(named(name, nil))
			if err != nil {
				t.Fatal(err)
			}
			now, err := st.Engine.Put(0, kv.EncodeKey(42), []byte("generic"), 0)
			if err != nil {
				t.Fatal(err)
			}
			_, v, found, err := st.Engine.Get(now, kv.EncodeKey(42))
			if err != nil || !found || string(v) != "generic" {
				t.Fatalf("Get: %q %v %v", v, found, err)
			}
		})
	}
}

// TestRecoverEngineGeneric closes every registered engine and brings it
// back through Stack.Recover.
func TestRecoverEngineGeneric(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			st, err := stack.Build(named(name, nil))
			if err != nil {
				t.Fatal(err)
			}
			assertRecovers(t, st, 3, "durable")
		})
	}
}

// TestOpenEngineTunables: a declared knob opens the engine, an unknown
// one fails naming the engine, and so does an unknown engine.
func TestOpenEngineTunables(t *testing.T) {
	t.Run("known tunable", func(t *testing.T) {
		st, err := stack.Build(named("betree", map[string]string{"epsilon": "0.7"}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Engine.Put(0, kv.EncodeKey(1), []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("unknown tunable", func(t *testing.T) {
		_, err := stack.Build(named("betree", map[string]string{"no_such": "1"}))
		if err == nil || !strings.Contains(err.Error(), "betree") {
			t.Fatalf("unknown tunable should error naming the engine: %v", err)
		}
	})
	t.Run("unknown engine", func(t *testing.T) {
		_, err := stack.Build(named("fractal", nil))
		if err == nil || !strings.Contains(err.Error(), "fractal") {
			t.Fatalf("unknown engine should error naming it: %v", err)
		}
	})
}

// TestRecoverWithTunables recovers an engine opened with tunable
// overrides under the same overrides (TestRecoverEngineGeneric covers
// every engine at its defaults).
func TestRecoverWithTunables(t *testing.T) {
	st, err := stack.Build(named("lsm", map[string]string{"wal_flush_bytes": "0"}))
	if err != nil {
		t.Fatal(err)
	}
	assertRecovers(t, st, 9, "persist")
}

// assertRecovers puts id -> value on st's engine, closes it, recovers
// the engine and reads the value back.
func assertRecovers(t *testing.T, st *stack.Stack, id uint64, value string) {
	t.Helper()
	now, err := st.Engine.Put(0, kv.EncodeKey(id), []byte(value), 0)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = st.Engine.Close(now); err != nil {
		t.Fatal(err)
	}
	eng, now, err := st.Recover(sim.NewRNG(2), now)
	if err != nil {
		t.Fatal(err)
	}
	_, v, found, err := eng.Get(now, kv.EncodeKey(id))
	if err != nil || !found || string(v) != value {
		t.Fatalf("recovered Get: %q %v %v", v, found, err)
	}
}
