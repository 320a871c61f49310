// Package btree implements a WiredTiger-style persistent B+Tree: a
// single collection file managed by a block manager that reuses freed
// extents (no-overwrite/copy-on-write page updates), a small page cache
// with foreground eviction, a synced update journal, and periodic
// checkpoints.
//
// The I/O shape this produces is the one the paper attributes to
// WiredTiger: small random writes confined to a narrow LBA range (the
// collection file), a stable application-level write amplification
// (~pageSize/valueSize plus journal), and write traffic that an SSD
// write cache can absorb.
//
// Everything the B+Tree shares with the Bε-tree lives in internal/cowtree,
// whose Core the Tree embeds: the node table, leaf cache, copy-on-write
// write, checkpoints, Open/Recover, the kv.Engine lifecycle, the
// operation bracket, the shared Tuning and the node itself — a B+Tree
// page is a plain cowtree.Node, whose leaf entries, upsert, half split
// and image are cowtree's. This package keeps its page magic, the
// descent, the internal-page split propagation, the scan path with its
// prefetch, the two recovery hooks, and its own knobs
// (internal_page_bytes, prefetch_depth).
package btree

import (
	"time"

	"ptsbench/internal/cowtree"
)

// Config holds the engine's tuning knobs: the tuning every copy-on-write
// tree shares, plus the B+Tree's internal page size and scan prefetch.
type Config struct {
	cowtree.Tuning

	// InternalPageBytes is the maximum serialized internal page size.
	InternalPageBytes int

	// PrefetchDepth is the number of leaf reads a scan keeps in flight:
	// when a range scan misses the cache it issues reads for up to
	// PrefetchDepth-1 following sibling leaves at the same virtual
	// time, overlapping them on the device's internal lanes (the
	// read-ahead a real engine issues once it detects a sequential leaf
	// walk). 1 (the default) reads one leaf at a time.
	PrefetchDepth int
}

// NewConfig returns WiredTiger-flavoured defaults for a dataset of
// roughly datasetBytes (see cowtree.NewTuning).
func NewConfig(datasetBytes int64) Config {
	return Config{
		Tuning:            cowtree.NewTuning(datasetBytes, 300*time.Microsecond, 120*time.Microsecond),
		InternalPageBytes: 4 << 10,
	}
}

// Validate fills defaults and rejects nonsense.
func (c Config) Validate() (Config, error) {
	var err error
	if c.Tuning, err = c.Tuning.Validate("btree"); err != nil {
		return c, err
	}
	if c.InternalPageBytes <= 0 {
		c.InternalPageBytes = 4 << 10
	}
	if c.PrefetchDepth < 1 {
		c.PrefetchDepth = 1
	}
	return c, nil
}
