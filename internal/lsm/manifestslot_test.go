package lsm

import (
	"bytes"
	"strings"
	"testing"

	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// garbleManifest overwrites every page of a manifest slot with non-zero
// junk — bit rot or a scribble, not a torn write (which zeroes or
// truncates).
func garbleManifest(t *testing.T, fs *extfs.FS, slot string) {
	t.Helper()
	f, err := fs.Open(slot)
	if err != nil {
		t.Fatalf("manifest slot %s missing: %v", slot, err)
	}
	junk := bytes.Repeat([]byte{0xA5}, int(f.SizePages())*fs.PageSize())
	if _, err := f.WriteAt(0, 0, int(f.SizePages()), junk); err != nil {
		t.Fatal(err)
	}
}

// TestManifestSlotCorruption mirrors cowtree's
// TestMetaSlotCorruptionOnFileDevice for the LSM's double-buffered
// manifest. One garbled slot must fall back to the survivor; both
// garbled must be a loud recovery error, never a bootstrap that sweeps
// every table as an orphan; both all-zero (a first manifest's torn slot
// writes) must stay a legitimate bootstrap.
func TestManifestSlotCorruption(t *testing.T) {
	// populate writes 300 synced puts through 8 KiB memtables and
	// closes, so both manifest slots hold a version; it returns the
	// database and the values it wrote.
	populate := func(t *testing.T) (*DB, *extfs.FS, map[uint64][]byte) {
		db, _, fs := testEnv(t, 32, true, func(c *Config) {
			c.WALFlushBytes = 0
			c.MemtableBytes = 8 << 10
		})
		var now sim.Duration
		var err error
		want := map[uint64][]byte{}
		for id := uint64(0); id < 300; id++ {
			v := []byte{byte(id), byte(id >> 8), 7}
			want[id] = v
			if now, err = db.Put(now, kv.EncodeKey(id), v, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Close(now); err != nil {
			t.Fatal(err)
		}
		if db.manifestSeq < 2 {
			t.Fatalf("want both manifest slots written, got %d manifest writes", db.manifestSeq)
		}
		return db, fs, want
	}

	t.Run("both-slots-garbled", func(t *testing.T) {
		db, fs, _ := populate(t)
		garbleManifest(t, fs, "MANIFEST-A")
		garbleManifest(t, fs, "MANIFEST-B")
		_, _, err := Recover(fs, db.cfg, sim.NewRNG(99), 0)
		if err == nil {
			t.Fatal("recovery succeeded over a manifest corrupt in both slots")
		}
		if !strings.Contains(err.Error(), "corrupt in both slots") {
			t.Fatalf("wrong error for double corruption: %v", err)
		}
	})

	t.Run("one-slot-garbled", func(t *testing.T) {
		db, fs, want := populate(t)
		// Garble the older generation; the newest survives. Generation
		// g lives in slot (g+1)%2.
		stale := "MANIFEST-A"
		if db.manifestSeq%2 == 1 {
			stale = "MANIFEST-B"
		}
		garbleManifest(t, fs, stale)
		re, rnow, err := Recover(fs, db.cfg, sim.NewRNG(99), 0)
		if err != nil {
			t.Fatalf("recovery with one garbled slot: %v", err)
		}
		for id, v := range want {
			_, got, found, err := re.Get(rnow, kv.EncodeKey(id))
			if err != nil || !found || !bytes.Equal(got, v) {
				t.Fatalf("key %d lost after recovery (got %x, found=%v, err=%v)", id, got, found, err)
			}
		}
	})

	t.Run("all-zero-slots-bootstrap", func(t *testing.T) {
		_, _, fs := testEnv(t, 16, true, nil)
		for _, slot := range []string{"MANIFEST-A", "MANIFEST-B"} {
			f, err := fs.Create(slot)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Grow(1); err != nil {
				t.Fatal(err)
			}
		}
		cfg := NewConfig(8 << 20)
		cfg.Content = true
		db, now, err := Recover(fs, cfg, sim.NewRNG(1), 0)
		if err != nil {
			t.Fatalf("all-zero slots must bootstrap, got error: %v", err)
		}
		if _, _, found, err := db.Get(now+1, kv.EncodeKey(1)); err != nil || found {
			t.Fatalf("bootstrapped db should be empty: found=%v err=%v", found, err)
		}
	})
}
