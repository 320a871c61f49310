package sstable

import "ptsbench/internal/arena"

// Spares recycles side-index arrays, one arena.Pool per column, and the
// Builder and Table structs they travel in. A DB keeps one for all its
// tables: Release returns a removed table's arrays and struct,
// NewBuilder and the lazy Bloom build take a retained array of the
// power-of-two class they need, or a new one, and Finish hands its
// builder back and takes a retained table struct. data holds
// content-mode builders' serialization scratch, which Finish returns.
// Spares is not safe for concurrent use.
type Spares struct {
	keyArena, dels, bloom, valArena, data arena.Pool[byte]
	vlens, valOffsets                     arena.Pool[uint32]
	seqs                                  arena.Pool[uint64]
	blocks                                arena.Pool[blockMeta]

	builders arena.Spare[Builder]
	tables   arena.Spare[Table]
}

// Release returns the table's side-index arrays, and the struct itself,
// to the Spares it was built with: the next Finish may hand the same
// struct out as another table, so the caller must hold the table's last
// reference. The table, and every key and value read from it, must not
// be used again; until its struct is reused it keeps only its ID and
// entry count, so a lookup fails loudly instead of answering as an
// empty table. A table opened from a file has no Spares; its arrays are
// left to the garbage collector and its struct to whoever holds it.
func (t *Table) Release() {
	s := t.spares
	if s != nil {
		s.keyArena.Put(t.keyArena)
		s.seqs.Put(t.seqs)
		s.vlens.Put(t.vlens)
		s.dels.Put(t.dels)
		s.blocks.Put(t.blocks)
		s.bloom.Put(t.bloom.bits)
		s.valArena.Put(t.valArena)
		s.valOffsets.Put(t.valOffsets)
	}
	*t = Table{ID: t.ID, numEntries: t.numEntries}
	if s != nil {
		s.tables.Put(t)
	}
}
