package lsm

import (
	"bytes"
	"strings"
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// syncedEnv builds a content-mode environment with per-put WAL syncs so
// that every acknowledged write is durable.
func syncedEnv(t *testing.T, tweak func(*Config)) (*DB, func(cfg Config) (*DB, sim.Duration, error)) {
	t.Helper()
	db, _, fs := testEnv(t, 32, true, func(c *Config) {
		c.WALFlushBytes = 0 // sync every put
		if tweak != nil {
			tweak(c)
		}
	})
	reopen := func(cfg Config) (*DB, sim.Duration, error) {
		return Recover(fs, cfg, sim.NewRNG(99), 0)
	}
	return db, reopen
}

func TestRecoverAfterCleanClose(t *testing.T) {
	db, reopen := syncedEnv(t, func(c *Config) { c.MemtableBytes = 8 << 10 })
	var now sim.Duration
	var err error
	want := map[uint64][]byte{}
	for id := uint64(0); id < 300; id++ {
		v := []byte{byte(id), byte(id >> 8), 7}
		want[id] = v
		now, err = db.Put(now, kv.EncodeKey(id), v, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Close(now); err != nil {
		t.Fatal(err)
	}
	re, rnow, err := reopen(db.cfg)
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
			t.Fatalf("key %d value corrupted after recovery", id)
		}
	}
}

func TestRecoverAfterCrash(t *testing.T) {
	// No Close, no FlushAll: some records live only in the WAL.
	db, reopen := syncedEnv(t, func(c *Config) { c.MemtableBytes = 16 << 10 })
	var now sim.Duration
	var err error
	for id := uint64(0); id < 500; id++ {
		v := []byte{byte(id % 251)}
		now, err = db.Put(now, kv.EncodeKey(id), v, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash by abandoning db (background work may be
	// mid-flight; the device state is whatever has been written).
	re, rnow, err := reopen(db.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 500; id++ {
		_, got, found, err := re.Get(rnow, kv.EncodeKey(id))
		if err != nil || !found {
			t.Fatalf("synced key %d lost after crash recovery: %v %v", id, found, err)
		}
		if got[0] != byte(id%251) {
			t.Fatalf("key %d value wrong after crash recovery", id)
		}
	}
}

func TestRecoverPreservesTombstones(t *testing.T) {
	db, reopen := syncedEnv(t, func(c *Config) { c.MemtableBytes = 8 << 10 })
	var now sim.Duration
	var err error
	for id := uint64(0); id < 100; id++ {
		now, err = db.Put(now, kv.EncodeKey(id), []byte{1}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = db.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 100; id += 2 {
		now, err = db.Delete(now, kv.EncodeKey(id))
		if err != nil {
			t.Fatal(err)
		}
	}
	re, rnow, err := reopen(db.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 100; id++ {
		_, _, found, err := re.Get(rnow, kv.EncodeKey(id))
		if err != nil {
			t.Fatal(err)
		}
		if want := id%2 == 1; found != want {
			t.Fatalf("key %d: found=%v after recovery, want %v", id, found, want)
		}
	}
}

func TestRecoveredDBAcceptsWrites(t *testing.T) {
	db, reopen := syncedEnv(t, nil)
	now, err := db.Put(0, kv.EncodeKey(1), []byte("a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Close(now); err != nil {
		t.Fatal(err)
	}
	re, rnow, err := reopen(db.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rnow, err = re.Put(rnow, kv.EncodeKey(2), []byte("b"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rnow, err = re.FlushAll(rnow); err != nil {
		t.Fatal(err)
	}
	for id, want := range map[uint64]string{1: "a", 2: "b"} {
		_, got, found, err := re.Get(rnow, kv.EncodeKey(id))
		if err != nil || !found || string(got) != want {
			t.Fatalf("key %d: %q %v %v", id, got, found, err)
		}
	}
}

func TestRecoverTwice(t *testing.T) {
	// Recovery must itself leave a recoverable state.
	db, reopen := syncedEnv(t, func(c *Config) { c.MemtableBytes = 8 << 10 })
	var now sim.Duration
	var err error
	for id := uint64(0); id < 200; id++ {
		now, err = db.Put(now, kv.EncodeKey(id), []byte{byte(id)}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	re1, _, err := reopen(db.cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = re1 // crash again immediately
	re2, rnow, err := reopen(db.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 200; id++ {
		_, got, found, err := re2.Get(rnow, kv.EncodeKey(id))
		if err != nil || !found || got[0] != byte(id) {
			t.Fatalf("key %d wrong after double recovery: %v %v %v", id, got, found, err)
		}
	}
}

func TestRecoverRequiresContentMode(t *testing.T) {
	_, _, fs := testEnv(t, 16, false, nil)
	cfg := NewConfig(8 << 20) // Content=false
	if _, _, err := Recover(fs, cfg, sim.NewRNG(1), 0); err == nil {
		t.Fatal("recovery without content mode should fail")
	}
}

// TestRecoverWithoutManifestBootstraps: a crash before the first flush
// leaves no manifest. Recovery must not wedge the database — it starts
// from a zero manifest, sweeps any surviving SSTs as orphans, replays
// the WAL, and the closing recovery flush writes the first real
// manifest.
func TestRecoverWithoutManifestBootstraps(t *testing.T) {
	_, _, fs := testEnv(t, 16, true, nil)
	cfg := NewConfig(8 << 20)
	cfg.Content = true
	db, now, err := Recover(fs, cfg, sim.NewRNG(1), 0)
	if err != nil {
		t.Fatalf("bootstrap recovery: %v", err)
	}
	if _, _, found, err := db.Get(now+1, kv.EncodeKey(1)); err != nil || found {
		t.Fatalf("bootstrapped db should be empty: found=%v err=%v", found, err)
	}
	if _, err := db.Put(now+2, kv.EncodeKey(1), []byte("a"), 1); err != nil {
		t.Fatalf("put on bootstrapped db: %v", err)
	}
	if _, got, found, err := db.Get(now+3, kv.EncodeKey(1)); err != nil || !found || string(got) != "a" {
		t.Fatalf("key 1 after bootstrap put: %q %v %v", got, found, err)
	}
}

func TestManifestEncodeDecode(t *testing.T) {
	st := manifestState{
		writeSeq:   42,
		seq:        1000,
		nextFileID: 17,
		walID:      5,
		levels:     [][]string{{"sst-1", "sst-2"}, {}, {"sst-3"}},
	}
	got, err := decodeManifest(st.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.writeSeq != 42 || got.seq != 1000 || got.nextFileID != 17 || got.walID != 5 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.levels) != 3 || len(got.levels[0]) != 2 || got.levels[2][0] != "sst-3" {
		t.Fatalf("levels mismatch: %+v", got.levels)
	}
	// Corruption is detected.
	enc := st.encode()
	enc[10] ^= 0xFF
	if _, err := decodeManifest(enc); err == nil {
		t.Fatal("corrupted manifest should fail decode")
	}
	if _, err := decodeManifest([]byte{1, 2, 3}); err == nil {
		t.Fatal("short manifest should fail decode")
	}
}

func TestRecycledWALDoesNotResurrect(t *testing.T) {
	// After a flush recycles a WAL segment, recovery must not replay the
	// flushed generation's records on top of newer deletes.
	db, reopen := syncedEnv(t, func(c *Config) { c.MemtableBytes = 4 << 10 })
	var now sim.Duration
	var err error
	// Generation 1: many puts (rotates the WAL several times).
	for id := uint64(0); id < 100; id++ {
		now, err = db.Put(now, kv.EncodeKey(id), []byte{1}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = db.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	// Generation 2: delete everything.
	for id := uint64(0); id < 100; id++ {
		now, err = db.Delete(now, kv.EncodeKey(id))
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = db.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	re, rnow, err := reopen(db.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 100; id++ {
		_, _, found, err := re.Get(rnow, kv.EncodeKey(id))
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatalf("deleted key %d resurrected by recovery", id)
		}
	}
}

// TestRecoverHonoursDisableWAL: a database opened with DisableWAL
// writes no WAL segment, and recovering it must not start journaling
// either — after recovery and a put, no "wal-" file exists.
func TestRecoverHonoursDisableWAL(t *testing.T) {
	db, reopen := syncedEnv(t, func(c *Config) { c.DisableWAL = true })
	now, err := db.Put(0, kv.EncodeKey(1), []byte("a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Close(now); err != nil {
		t.Fatal(err)
	}
	re, rnow, err := reopen(db.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rnow, err = re.Put(rnow, kv.EncodeKey(2), []byte("b"), 0); err != nil {
		t.Fatal(err)
	}
	for _, name := range re.fs.List() {
		if strings.HasPrefix(name, "wal-") {
			t.Fatalf("recovered DisableWAL database journals to %s", name)
		}
	}
	if _, got, found, err := re.Get(rnow, kv.EncodeKey(1)); err != nil || !found || string(got) != "a" {
		t.Fatalf("key 1 after recovery: %q %v %v", got, found, err)
	}
}
