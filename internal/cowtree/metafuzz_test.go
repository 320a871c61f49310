package cowtree

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptsbench/internal/extfs"
	"ptsbench/internal/filedev"
)

// TestMetaEncodeDecode round-trips a record under each engine's magic and
// checks that corruption, truncation and another engine's magic are
// refused.
func TestMetaEncodeDecode(t *testing.T) {
	magics := []struct {
		name  string
		magic uint32
	}{
		{"btree", 0x57544D54},  // "WTMT", btree.metaMagic
		{"betree", 0x42454D54}, // "BEMT", betree.metaMagic
		{"stub", stubMetaMagic},
	}
	st := Meta{Gen: 7, Seq: 1234, JournalID: 3, Root: Extent{Start: 99, Pages: 4}}
	for i, m := range magics {
		t.Run(m.name, func(t *testing.T) {
			enc := make([]byte, metaBytes)
			putMeta(enc, &st, m.magic)
			got, err := DecodeMeta(enc, m.magic, m.name)
			if err != nil {
				t.Fatal(err)
			}
			if *got != st {
				t.Fatalf("round trip mismatch: %+v vs %+v", got, st)
			}
			other := magics[(i+1)%len(magics)].magic
			if _, err := DecodeMeta(enc, other, m.name); err == nil {
				t.Fatal("another engine's magic should fail")
			}
			enc[5] ^= 0xFF
			if _, err := DecodeMeta(enc, m.magic, m.name); err == nil {
				t.Fatal("corrupted metadata should fail")
			}
			if _, err := DecodeMeta(enc[:1], m.magic, m.name); err == nil {
				t.Fatal("short metadata should fail")
			}
		})
	}
}

// FuzzMetaDecode hammers the checkpoint-metadata codec with arbitrary
// bytes: DecodeMeta must never panic, and whenever it accepts an input
// the decoded record must re-encode to exactly the bytes it came from —
// a decode that "succeeds" on garbage it cannot reproduce would be a
// silent corruption of the recovery root.
func FuzzMetaDecode(f *testing.F) {
	valid := make([]byte, metaBytes)
	putMeta(valid, &Meta{Gen: 7, Seq: 42, JournalID: 3, Root: Extent{Start: 128, Pages: 2}}, stubMetaMagic)
	f.Add(valid)
	f.Add(valid[:20]) // truncated
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x40 // bit flip inside Gen
	f.Add(flipped)
	f.Add(make([]byte, metaBytes)) // all zeros
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMeta(data, stubMetaMagic, "fuzz")
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("DecodeMeta returned nil meta without an error")
		}
		re := make([]byte, metaBytes)
		putMeta(re, m, stubMetaMagic)
		if !bytes.Equal(re, data[:metaBytes]) {
			t.Fatalf("decode/encode roundtrip diverges:\n in  %x\n out %x", data[:metaBytes], re)
		}
	})
}

// fileStubEnv mounts extfs over a real backing file, so the corruption
// below lands in an actual file image rather than the simulated content
// store.
func fileStubEnv(t *testing.T) (*filedev.Dev, *extfs.FS) {
	t.Helper()
	dev, err := filedev.Open(filedev.Config{
		Path:  filepath.Join(t.TempDir(), "stub.img"),
		Pages: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	fs, err := extfs.Mount(dev, extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dev, fs
}

// garbleSlot overwrites a metadata slot's page with non-zero junk
// directly through the device — modeling bit rot or a scribble beneath
// the filesystem, not a torn write (which zeroes or truncates).
func garbleSlot(t *testing.T, dev *filedev.Dev, fs *extfs.FS, slot string) {
	t.Helper()
	f, err := fs.Open(slot)
	if err != nil {
		t.Fatalf("meta slot %s missing: %v", slot, err)
	}
	exts := f.Extents()
	if len(exts) != 1 || exts[0][1] != 1 {
		t.Fatalf("meta slot %s not a single page: %v", slot, exts)
	}
	junk := make([]byte, dev.PageSize())
	for i := range junk {
		junk[i] = 0xA5
	}
	dev.Restore(exts[0][0], 1, junk)
}

// TestMetaSlotCorruptionOnFileDevice scripts real checkpoints onto a
// file-backed device and then corrupts the double-buffered metadata
// slots in place. One garbled slot must fall back to the survivor; both
// garbled must be a loud recovery error, never a silent bootstrap of an
// empty tree over real data; both all-zero (a first checkpoint's torn
// slot writes) must stay a legitimate bootstrap.
func TestMetaSlotCorruptionOnFileDevice(t *testing.T) {
	// Three checkpoints populate both slots: gens 1 and 3 land in
	// stmeta-A, gen 2 in stmeta-B.
	t.Run("both-slots-garbled", func(t *testing.T) {
		dev, fs := fileStubEnv(t)
		now, err := runMetaScript(fs, 3)
		if err != nil {
			t.Fatal(err)
		}
		garbleSlot(t, dev, fs, "stmeta-A")
		garbleSlot(t, dev, fs, "stmeta-B")
		_, _, err = recoverStub(fs, stubConfig(time.Hour, 4), now)
		if err == nil {
			t.Fatal("recovery succeeded over corrupt metadata in both slots")
		}
		if !strings.Contains(err.Error(), "corrupt in both slots") {
			t.Fatalf("wrong error for double corruption: %v", err)
		}
	})

	t.Run("one-slot-garbled", func(t *testing.T) {
		dev, fs := fileStubEnv(t)
		now, err := runMetaScript(fs, 3)
		if err != nil {
			t.Fatal(err)
		}
		garbleSlot(t, dev, fs, "stmeta-B") // stale gen 2; gen 3 in slot A survives
		rt, _, err := recoverStub(fs, stubConfig(time.Hour, 4), now)
		if err != nil {
			t.Fatalf("recovery with one garbled slot: %v", err)
		}
		for cp := 1; cp <= 3; cp++ {
			for i := 0; i < 8; i++ {
				v, ok := rt.get(uint64(cp*100 + i))
				if !ok || string(v) != string(tornVal(cp, i)) {
					t.Fatalf("batch %d key %d lost (got %q, ok=%v)", cp, cp*100+i, v, ok)
				}
			}
		}
	})

	t.Run("all-zero-slots-bootstrap", func(t *testing.T) {
		_, fs := fileStubEnv(t)
		for _, slot := range []string{"stmeta-A", "stmeta-B"} {
			f, err := fs.Create(slot)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Grow(1); err != nil {
				t.Fatal(err)
			}
		}
		m, _, err := ReadMeta(fs, stubNaming, 0)
		if err != nil {
			t.Fatalf("all-zero slots must bootstrap, got error: %v", err)
		}
		if m != nil {
			t.Fatalf("all-zero slots decoded to %+v", m)
		}
	})
}
