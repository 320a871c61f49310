package kv

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestKeyRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		k := EncodeKey(id)
		if len(k) != KeySize {
			t.Fatalf("key length %d", len(k))
		}
		got, err := DecodeKey(k)
		if err != nil || got != id {
			t.Fatalf("round trip %d -> %d (%v)", id, got, err)
		}
	}
}

func TestKeyOrderMatchesNumericOrder(t *testing.T) {
	f := func(a, b uint64) bool {
		ka, kb := EncodeKey(a), EncodeKey(b)
		c := bytes.Compare(ka, kb)
		switch {
		case a < b:
			return c < 0
		case a > b:
			return c > 0
		default:
			return c == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendKeyMatchesEncodeKey(t *testing.T) {
	buf := make([]byte, KeySize)
	for _, id := range []uint64{0, 7, 1 << 33} {
		AppendKey(buf, id)
		if !bytes.Equal(buf, EncodeKey(id)) {
			t.Fatalf("AppendKey mismatch for %d", id)
		}
	}
}

func TestDecodeKeyBadLength(t *testing.T) {
	if _, err := DecodeKey([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error for short key")
	}
}

func TestSynthValueDeterministic(t *testing.T) {
	k := EncodeKey(99)
	a := make([]byte, 128)
	b := make([]byte, 128)
	SynthValue(a, k, 5)
	SynthValue(b, k, 5)
	if !bytes.Equal(a, b) {
		t.Fatal("SynthValue not deterministic")
	}
	SynthValue(b, k, 6)
	if bytes.Equal(a, b) {
		t.Fatal("SynthValue ignores seq")
	}
	SynthValue(b, EncodeKey(100), 5)
	if bytes.Equal(a, b) {
		t.Fatal("SynthValue ignores key")
	}
}

func TestSynthValueNotAllZero(t *testing.T) {
	v := make([]byte, 64)
	SynthValue(v, EncodeKey(1), 1)
	zero := true
	for _, b := range v {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		t.Fatal("SynthValue produced all zeros")
	}
}

func TestEntryCompare(t *testing.T) {
	a := &Entry{Key: EncodeKey(1), Seq: 10}
	b := &Entry{Key: EncodeKey(2), Seq: 5}
	if Compare(a, b) >= 0 {
		t.Fatal("key order broken")
	}
	// Same key: newer seq sorts first.
	c := &Entry{Key: EncodeKey(1), Seq: 20}
	if Compare(c, a) >= 0 {
		t.Fatal("seq order broken: newer must sort before older")
	}
	if Compare(a, a) != 0 {
		t.Fatal("self-compare not zero")
	}
}

func TestEngineStatsSub(t *testing.T) {
	a := EngineStats{Puts: 10, Gets: 5, UserBytesWritten: 1000}
	b := EngineStats{Puts: 4, Gets: 2, UserBytesWritten: 300}
	d := a.Sub(b)
	if d.Puts != 6 || d.Gets != 3 || d.UserBytesWritten != 700 {
		t.Fatalf("Sub wrong: %+v", d)
	}
}

// TestCheckKey: only a KeySize key passes; every other width, the empty
// and nil keys included, gets an error wrapping ErrKeySize.
func TestCheckKey(t *testing.T) {
	if err := CheckKey(EncodeKey(7)); err != nil {
		t.Fatalf("a %d-byte key: %v", KeySize, err)
	}
	for _, k := range [][]byte{nil, {}, make([]byte, 8), make([]byte, KeySize-1), make([]byte, KeySize+1), make([]byte, 24)} {
		if err := CheckKey(k); !errors.Is(err, ErrKeySize) {
			t.Fatalf("a %d-byte key: %v, want an error wrapping ErrKeySize", len(k), err)
		}
	}
}
