package lsm

import (
	"bytes"
	"testing"
)

// FuzzManifestDecode hammers the manifest codec with arbitrary bytes:
// decodeManifest must never panic, and whenever it accepts an input the
// decoded version must re-encode to exactly the bytes it was read from
// (a slot is read as whole pages, so bytes after the CRC are padding) —
// a decode that "succeeds" on garbage it cannot reproduce would hand
// recovery a version no manifest write produced.
func FuzzManifestDecode(f *testing.F) {
	st := manifestState{
		writeSeq:   42,
		seq:        1000,
		flushedSeq: 900,
		nextFileID: 17,
		walID:      5,
		levels:     [][]string{{"sst-000001", "sst-000002"}, {}, {"sst-000003"}},
	}
	valid := st.encode()
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), make([]byte, 64)...)) // page padding
	f.Add(valid[:30])                                                 // truncated
	flipped := append([]byte(nil), valid...)
	flipped[13] ^= 0x40 // bit flip inside seq
	f.Add(flipped)
	f.Add((&manifestState{}).encode()) // no levels
	f.Add(make([]byte, 4096))          // an all-zero slot
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("decodeManifest returned nil state without an error")
		}
		re := m.encode()
		if len(re) > len(data) || !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("decode/encode roundtrip diverges:\n in  %x\n out %x", data, re)
		}
	})
}
