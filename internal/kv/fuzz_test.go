package kv

import (
	"bytes"
	"testing"
)

// FuzzEncodeDecodeKey pins the canonical key codec: encode/decode round
// trips exactly, byte order preserves numeric order, the allocation-free
// AppendKey matches EncodeKey, and the decomposed-word compare fast
// paths agree with bytes.Compare.
func FuzzEncodeDecodeKey(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(42), ^uint64(0))
	f.Add(uint64(1)<<40, uint64(1)<<40+1)
	f.Fuzz(func(t *testing.T, a, b uint64) {
		ka, kb := EncodeKey(a), EncodeKey(b)
		if len(ka) != KeySize {
			t.Fatalf("key length %d", len(ka))
		}
		got, err := DecodeKey(ka)
		if err != nil || got != a {
			t.Fatalf("round trip %d -> %d (%v)", a, got, err)
		}

		// Ordering: bytes.Compare must mirror numeric order.
		c := bytes.Compare(ka, kb)
		switch {
		case a < b && c >= 0, a > b && c <= 0, a == b && c != 0:
			t.Fatalf("order mismatch: %d vs %d -> compare %d", a, b, c)
		}

		// AppendKey is the allocation-free twin of EncodeKey.
		buf := make([]byte, KeySize)
		AppendKey(buf, a)
		if !bytes.Equal(buf, ka) {
			t.Fatalf("AppendKey mismatch for %d", a)
		}

		// The word-compare fast paths agree with the generic compare.
		if CompareKeys(ka, kb) != c {
			t.Fatalf("CompareKeys disagrees with bytes.Compare for %d vs %d", a, b)
		}
		hi, lo := DecomposeKey(kb)
		if CompareKeyWords(ka, hi, lo) != c {
			t.Fatalf("CompareKeyWords disagrees with bytes.Compare for %d vs %d", a, b)
		}
	})
}
