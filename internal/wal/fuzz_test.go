package wal

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"testing"

	"ptsbench/internal/extfs"
	"ptsbench/internal/filedev"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// FuzzWALReplay corrupts a real, synced WAL segment image — bit flips,
// truncated (zeroed) tails, runs of garbage — and requires that Replay
// (a) never panics and (b) still returns every record that lies wholly
// before the first corrupted byte, byte-for-byte. Nothing is asserted
// about records at or past the damage: CRC32 is linear, so a fuzzer can
// legitimately forge a record by flipping payload and checksum bits
// together; the contract under corruption is a clean stop, not
// tamper-proofing.
//
// Records carry kv.KeySize keys; one written with a key of another
// width is well-formed and checksummed but malformed, and (c) ends the
// log like any other: replay returns exactly the records before it when
// nothing else is damaged, and never a key of another width.
//
// The fuzz input is a sequence of 5-byte ops; ops 0-2 mutate the
// segment's byte image, op 3 is applied before the records are written:
//
//	b[0]%4  op: 0 = XOR b[3] into the byte at off (no-op when b[3]==0),
//	            1 = zero from off to end of file (a truncated tail),
//	            2 = write b[4]%64+1 bytes of garbage at off,
//	            3 = write record b[3]%8 with an 8-byte key
//	b[1:3]  off, little-endian, modulo the file size
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x08, 0x00, 0xff, 0x00}) // flip bits early in the log
	f.Add([]byte{1, 0x40, 0x00, 0x00, 0x00}) // zero the tail from byte 64
	f.Add([]byte{2, 0x80, 0x00, 0x5a, 0x20}) // 33 garbage bytes at 128
	f.Add([]byte{0, 0x00, 0x00, 0x01, 0x00, 0, 0xf0, 0x00, 0x80, 0x00})
	f.Add([]byte{3, 0x00, 0x00, 0x04, 0x00}) // record 4 has an 8-byte key
	f.Fuzz(func(t *testing.T, raw []byte) {
		dev, err := filedev.Open(filedev.Config{
			Path:  filepath.Join(t.TempDir(), "wal.img"),
			Pages: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		fs, err := extfs.Mount(dev, extfs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		w, err := Create(fs, "seg", true)
		if err != nil {
			t.Fatal(err)
		}

		// Append a known, synced record stream and note where each
		// record's bytes start and end in the segment, and the first
		// record with an 8-byte key.
		narrow := map[int]bool{}
		for b := raw; len(b) >= 5; b = b[5:] {
			if b[0]%4 == 3 {
				narrow[int(b[3]%8)] = true
			}
		}
		var (
			originals  []Record
			ends       []int
			now        sim.Duration
			off        int
			wellFormed = 8
		)
		for i := 0; i < 8; i++ {
			rec := Record{
				Seq:     uint64(i + 1),
				Key:     kv.EncodeKey(uint64(i)),
				Value:   bytes.Repeat([]byte{byte('a' + i)}, 5+i*3),
				Deleted: i%5 == 4,
			}
			if narrow[i] {
				rec.Key = rec.Key[kv.KeySize-8:]
				wellFormed = min(wellFormed, i)
			}
			if rec.Deleted {
				rec.Value = nil
			}
			originals = append(originals, rec)
			off += rec.EncodedLen()
			ends = append(ends, off)
			if now, err = w.Append(now, &rec, true); err != nil {
				t.Fatal(err)
			}
		}

		// Pull the segment's full byte image back off the device.
		seg, err := fs.Open("seg")
		if err != nil {
			t.Fatal(err)
		}
		pages := int(seg.SizePages())
		img := make([]byte, pages*fs.PageSize())
		if now, err = seg.ReadAt(now, 0, pages, img); err != nil {
			t.Fatal(err)
		}

		// Apply the mutation ops, tracking the lowest byte touched.
		minTouched := len(img)
		for b := raw; len(b) >= 5; b = b[5:] {
			pos := int(binary.LittleEndian.Uint16(b[1:3])) % len(img)
			switch b[0] % 4 {
			case 0:
				if b[3] == 0 {
					continue // XOR 0 would dodge the minTouched tracking
				}
				img[pos] ^= b[3]
			case 1:
				for i := pos; i < len(img); i++ {
					img[i] = 0
				}
			case 2:
				n := int(b[4])%64 + 1
				for i := 0; i < n && pos+i < len(img); i++ {
					img[pos+i] = byte(0xC3 ^ i*7 ^ int(b[3]))
				}
			case 3:
				continue // applied before the records were written
			}
			if pos < minTouched {
				minTouched = pos
			}
		}
		if now, err = seg.WriteAt(now, 0, pages, img); err != nil {
			t.Fatal(err)
		}

		var replayed []Record
		if _, err = Replay(fs, "seg", now, func(r Record) {
			replayed = append(replayed, r)
		}); err != nil {
			t.Fatalf("replay errored on a readable segment: %v", err)
		}

		// Every record wholly before the damage and before the first
		// 8-byte key must survive intact; with no mutations that is the
		// whole stream up to that key, and nothing extra may appear past
		// it.
		intact := 0
		for intact < wellFormed && ends[intact] <= minTouched {
			intact++
		}
		if len(replayed) < intact {
			t.Fatalf("replay returned %d records, want at least the %d before the first corrupted byte %d",
				len(replayed), intact, minTouched)
		}
		if minTouched == len(img) && len(replayed) != wellFormed {
			t.Fatalf("untouched log replayed %d records, want the %d before any 8-byte key", len(replayed), wellFormed)
		}
		for i, r := range replayed {
			if len(r.Key) != kv.KeySize {
				t.Fatalf("replayed record %d has a %d-byte key", i, len(r.Key))
			}
		}
		for i := 0; i < intact; i++ {
			if !recEqual(replayed[i], originals[i]) {
				t.Fatalf("record %d corrupted by damage at byte %d:\n got %+v\nwant %+v",
					i, minTouched, replayed[i], originals[i])
			}
		}
	})
}

func recEqual(a, b Record) bool {
	return a.Seq == b.Seq && a.Deleted == b.Deleted &&
		bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value)
}
