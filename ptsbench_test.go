package ptsbench_test

// Tests for the public facade: everything a downstream user touches.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ptsbench"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/workload"
)

// TestStackAndEngineRoundTrip: a tunable reaches the engine opened on a
// facade stack — with the WAL synced on every put, one put is already
// device traffic.
func TestStackAndEngineRoundTrip(t *testing.T) {
	stack, err := ptsbench.NewStack(ptsbench.StackOptions{
		CapacityBytes: 256 << 20,
		ContentStore:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := ptsbench.OpenEngine(stack, "lsm", 32<<20, map[string]string{"wal_flush_bytes": "0"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var now ptsbench.VirtualTime
	now, err = db.Put(now, ptsbench.EncodeKey(1), []byte("hello"), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, v, found, err := db.Get(now, ptsbench.EncodeKey(1))
	if err != nil || !found || string(v) != "hello" {
		t.Fatalf("Get: %q %v %v", v, found, err)
	}
	if stack.BlockDev.Counters().BytesWritten == 0 {
		t.Fatal("WAL write should reach the device")
	}
}

func TestParseEngine(t *testing.T) {
	for name, want := range map[string]ptsbench.EngineKind{
		"lsm": ptsbench.LSM, "btree": ptsbench.BTree, "betree": ptsbench.Betree,
	} {
		got, err := ptsbench.ParseEngine(name)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ptsbench.ParseEngine("bogus"); err == nil {
		t.Fatal("unknown engine should error")
	}
}

func TestEncodeKeyMatchesOrdering(t *testing.T) {
	a, b := ptsbench.EncodeKey(10), ptsbench.EncodeKey(11)
	if len(a) != 16 {
		t.Fatalf("key length %d", len(a))
	}
	if bytes.Compare(a, b) >= 0 {
		t.Fatal("numeric order not preserved")
	}
}

// TestEncodeKeyMatchesHarness pins the facade's key codec byte-for-byte
// to the one the harness actually writes: internal/kv's canonical
// encoding, as surfaced through workload.Generator.Key. The facade used
// to carry its own hand-rolled copy; this test makes any future drift a
// failure.
func TestEncodeKeyMatchesHarness(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Spec{NumKeys: 1 << 20, ValueBytes: 100}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{0, 1, 255, 256, 1<<16 - 1, 1 << 16, 1<<32 + 12345, ^uint64(0)}
	for _, id := range ids {
		facade := ptsbench.EncodeKey(id)
		if !bytes.Equal(facade, kv.EncodeKey(id)) {
			t.Fatalf("id %d: facade key % x != kv.EncodeKey % x", id, facade, kv.EncodeKey(id))
		}
		if !bytes.Equal(facade, gen.Key(id)) {
			t.Fatalf("id %d: facade key % x != workload generator key % x", id, facade, gen.Key(id))
		}
	}
}

// TestEnginesRegistry: the facade lists every built-in driver with its
// tunables.
func TestEnginesRegistry(t *testing.T) {
	infos := ptsbench.Engines()
	byName := map[string][]ptsbench.EngineTunable{}
	for _, info := range infos {
		byName[info.Name] = info.Tunables
	}
	for _, name := range []string{"lsm", "btree", "betree"} {
		tunables, ok := byName[name]
		if !ok {
			t.Fatalf("engine %q missing from Engines()", name)
		}
		if len(tunables) == 0 {
			t.Fatalf("engine %q documents no tunables", name)
		}
	}
}

// TestOpenEngineGeneric drives every registered engine through the
// generic registry entry point: open by name, write, read back.
func TestOpenEngineGeneric(t *testing.T) {
	for _, info := range ptsbench.Engines() {
		stack, err := ptsbench.NewStack(ptsbench.StackOptions{
			CapacityBytes: 256 << 20,
			ContentStore:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := ptsbench.OpenEngine(stack, info.Name, 32<<20, nil, 1)
		if err != nil {
			t.Fatalf("%s: OpenEngine: %v", info.Name, err)
		}
		var now ptsbench.VirtualTime
		now, err = eng.Put(now, ptsbench.EncodeKey(42), []byte("generic"), 0)
		if err != nil {
			t.Fatalf("%s: Put: %v", info.Name, err)
		}
		_, v, found, err := eng.Get(now, ptsbench.EncodeKey(42))
		if err != nil || !found || string(v) != "generic" {
			t.Fatalf("%s: Get: %q %v %v", info.Name, v, found, err)
		}
	}
}

// TestRecoverEngineGeneric closes each engine and reopens it by name
// through the registry's recovery path.
func TestRecoverEngineGeneric(t *testing.T) {
	for _, info := range ptsbench.Engines() {
		stack, err := ptsbench.NewStack(ptsbench.StackOptions{
			CapacityBytes: 256 << 20,
			ContentStore:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := ptsbench.OpenEngine(stack, info.Name, 16<<20, nil, 1)
		if err != nil {
			t.Fatalf("%s: OpenEngine: %v", info.Name, err)
		}
		var now ptsbench.VirtualTime
		now, err = eng.Put(now, ptsbench.EncodeKey(3), []byte("durable"), 0)
		if err != nil {
			t.Fatalf("%s: Put: %v", info.Name, err)
		}
		if now, err = eng.Close(now); err != nil {
			t.Fatalf("%s: Close: %v", info.Name, err)
		}
		re, rnow, err := ptsbench.RecoverEngine(stack, info.Name, 16<<20, nil, 2, now)
		if err != nil {
			t.Fatalf("%s: RecoverEngine: %v", info.Name, err)
		}
		_, v, found, err := re.Get(rnow, ptsbench.EncodeKey(3))
		if err != nil || !found || string(v) != "durable" {
			t.Fatalf("%s: recovered Get: %q %v %v", info.Name, v, found, err)
		}
	}
}

// TestOpenEngineTunables: declarative knobs reach the engine config,
// and bad ones fail with the engine's name.
func TestOpenEngineTunables(t *testing.T) {
	stack, err := ptsbench.NewStack(ptsbench.StackOptions{
		CapacityBytes: 256 << 20,
		ContentStore:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ptsbench.OpenEngine(stack, "betree", 32<<20, map[string]string{"epsilon": "0.7"}, 1)
	if err != nil {
		t.Fatalf("OpenEngine with tunables: %v", err)
	}
	if _, err := eng.Put(0, ptsbench.EncodeKey(1), []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	_, err = ptsbench.OpenEngine(stack, "betree", 32<<20, map[string]string{"no_such": "1"}, 1)
	if err == nil || !strings.Contains(err.Error(), "betree") {
		t.Fatalf("unknown tunable should error naming the engine: %v", err)
	}
	if _, err := ptsbench.OpenEngine(stack, "fractal", 32<<20, nil, 1); err == nil {
		t.Fatal("unknown engine should error")
	}
}

func TestRunFacade(t *testing.T) {
	res, err := ptsbench.Run(ptsbench.Spec{
		Engine:   ptsbench.LSM,
		Scale:    2048,
		Duration: 15 * time.Minute,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steady.ThroughputKOps <= 0 {
		t.Fatal("no throughput")
	}
}

func TestFigureFacade(t *testing.T) {
	// The paper's fig2..fig11 plus the qdsweep, betradeoff,
	// shardsweep and replsweep extensions.
	if len(ptsbench.Figures()) != 14 {
		t.Fatalf("expected 14 figures, got %d", len(ptsbench.Figures()))
	}
	rep, err := ptsbench.Figure("fig4", ptsbench.FigureOptions{Quick: true, Scale: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig4" || len(rep.Series) == 0 {
		t.Fatalf("malformed report: %+v", rep)
	}
	if _, err := ptsbench.Figure("fig99", ptsbench.FigureOptions{}); err == nil {
		t.Fatal("unknown figure should error")
	}
}

func TestDeviceProfiles(t *testing.T) {
	for _, p := range []func() (name string){
		func() string { return ptsbench.ProfileSSD1().Name },
		func() string { return ptsbench.ProfileSSD2().Name },
		func() string { return ptsbench.ProfileSSD3().Name },
	} {
		if p() == "" {
			t.Fatal("profile has no name")
		}
	}
	if ptsbench.DefaultDevice().CapacityBytes != 400<<30 {
		t.Fatal("default device should be the paper's 400 GB drive")
	}
}

func TestStackDefaults(t *testing.T) {
	stack, err := ptsbench.NewStack(ptsbench.StackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stack.SSD.LogicalBytes() != 1<<30 {
		t.Fatalf("default capacity %d", stack.SSD.LogicalBytes())
	}
	if stack.BlockDev.ContentEnabled() {
		t.Fatal("content store should default off")
	}
}

// TestRecoveryThroughFacade recovers an engine opened with tunable
// overrides under the same overrides (TestRecoverEngineGeneric covers
// every engine at its defaults).
func TestRecoveryThroughFacade(t *testing.T) {
	stack, err := ptsbench.NewStack(ptsbench.StackOptions{
		CapacityBytes: 256 << 20,
		ContentStore:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	synced := map[string]string{"wal_flush_bytes": "0"}
	db, err := ptsbench.OpenEngine(stack, "lsm", 16<<20, synced, 1)
	if err != nil {
		t.Fatal(err)
	}
	var now ptsbench.VirtualTime
	now, err = db.Put(now, ptsbench.EncodeKey(9), []byte("persist"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Close(now); err != nil {
		t.Fatal(err)
	}
	re, rnow, err := ptsbench.RecoverEngine(stack, "lsm", 16<<20, synced, 2, now)
	if err != nil {
		t.Fatal(err)
	}
	_, v, found, err := re.Get(rnow, ptsbench.EncodeKey(9))
	if err != nil || !found || string(v) != "persist" {
		t.Fatalf("recovered Get: %q %v %v", v, found, err)
	}
}
