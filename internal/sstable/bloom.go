package sstable

import (
	"encoding/binary"
	"math/bits"
)

// bloomBitsPerKey matches RocksDB's default full-filter sizing.
const bloomBitsPerKey = 10

// bloomProbes is the probe count writers use (≈ 0.69 * bitsPerKey).
// maxBloomProbes bounds what a table file may declare: each probe is a
// loop iteration of every lookup, so a damaged count near 2^32 would
// make one lookup spin for seconds.
const (
	bloomProbes    = 7
	maxBloomProbes = 32
)

// Bloom is a split-free classic Bloom filter with double hashing.
type Bloom struct {
	bits  []byte
	k     uint32 // number of probes
	nbits uint32
	mod   uint64 // ^uint64(0)/nbits + 1, modBits's multiplier
}

// newBloomBits wraps a bit array of nbits bits probed k times.
func newBloomBits(bitArray []byte, k, nbits uint32) Bloom {
	return Bloom{bits: bitArray, k: k, nbits: nbits, mod: ^uint64(0)/uint64(nbits) + 1}
}

// bloomBitCount is the one sizing rule: bloomBitsPerKey bits per key,
// at least 64 bits.
func bloomBitCount(n int) uint32 {
	return uint32(max(n*bloomBitsPerKey, 64))
}

// newBloom makes an empty filter for n keys, its bits taken from spares.
func newBloom(n int, spares *Spares) Bloom {
	nbits := bloomBitCount(n)
	size := int(nbits+7) / 8
	bits := spares.bloom.Get(size)
	clear(bits)
	return newBloomBits(bits, bloomProbes, nbits)
}

// hash64 is FNV-1a over the key.
func hash64(key []byte) uint64 {
	var h uint64 = 1469598103934665603
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// modBits returns x % nbits without a division: the high word of
// (mod*x mod 2^64) * nbits is exact for every 32-bit x and divisor
// (Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation",
// 2019).
func (b *Bloom) modBits(x uint32) uint32 {
	hi, _ := bits.Mul64(b.mod*uint64(x), uint64(b.nbits))
	return uint32(hi)
}

// Add inserts a key.
func (b *Bloom) Add(key []byte) {
	h := hash64(key)
	h1 := uint32(h)
	h2 := uint32(h >> 32)
	for i := uint32(0); i < b.k; i++ {
		bit := b.modBits(h1 + i*h2)
		b.bits[bit/8] |= 1 << (bit & 7)
	}
}

// mayContain reports whether the key whose hash64 is h may be present
// (false positives are possible, false negatives are not).
func (b *Bloom) mayContain(h uint64) bool {
	h1 := uint32(h)
	h2 := uint32(h >> 32)
	for i := uint32(0); i < b.k; i++ {
		bit := b.modBits(h1 + i*h2)
		if b.bits[bit/8]&(1<<(bit&7)) == 0 {
			return false
		}
	}
	return true
}

// bloomSizeBytes returns the serialized size of newBloom(n)'s filter,
// without building it — the accounting path sizes the filter section
// lazily.
func bloomSizeBytes(n int) int {
	return int(bloomBitCount(n)+7)/8 + 8
}

// encode serializes the filter (k, nbits, bits).
func (b *Bloom) encode() []byte {
	out := make([]byte, 8+len(b.bits))
	binary.LittleEndian.PutUint32(out[0:], b.k)
	binary.LittleEndian.PutUint32(out[4:], b.nbits)
	copy(out[8:], b.bits)
	return out
}

// decodeBloom parses a serialized filter.
func decodeBloom(buf []byte) (Bloom, bool) {
	if len(buf) < 8 {
		return Bloom{}, false
	}
	k := binary.LittleEndian.Uint32(buf[0:])
	nbits := binary.LittleEndian.Uint32(buf[4:])
	need := int(nbits+7) / 8
	if k == 0 || k > maxBloomProbes || nbits == 0 || need > len(buf)-8 {
		return Bloom{}, false
	}
	return newBloomBits(append([]byte(nil), buf[8:8+need]...), k, nbits), true
}
