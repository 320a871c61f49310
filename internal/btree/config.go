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
package btree

import (
	"fmt"
	"time"
)

// Config holds the engine's tuning knobs.
type Config struct {
	// LeafPageBytes is the maximum serialized leaf size (WiredTiger's
	// leaf_page_max, default 32 KiB).
	LeafPageBytes int
	// InternalPageBytes is the maximum serialized internal page size.
	InternalPageBytes int
	// CacheBytes bounds the leaf-page cache (the paper configures a
	// deliberately small 10 MiB cache so the dataset cannot fit in
	// RAM).
	CacheBytes int64
	// CheckpointInterval triggers a checkpoint when this much virtual
	// time has passed since the last one (WiredTiger defaults to 60s).
	CheckpointInterval time.Duration
	// CheckpointPendingBytes triggers a checkpoint when this many bytes
	// of freed extents await release (they only return to the allocator
	// at checkpoint commit; see the block manager).
	CheckpointPendingBytes int64
	// JournalSync syncs the journal on every update.
	JournalSync bool
	// DisableJournal turns journaling off entirely (ablations).
	DisableJournal bool

	// CPUPutTime / CPUGetTime model per-operation engine CPU and
	// synchronization overhead; CPUPerByte adds the payload-dependent
	// part. The paper observes WiredTiger is less device-bound than
	// RocksDB because of these costs (§4.1).
	CPUPutTime time.Duration
	CPUGetTime time.Duration
	CPUPerByte time.Duration

	// ChunkPages is the checkpoint I/O granularity per job step.
	ChunkPages int

	// PrefetchDepth is the number of leaf reads a scan keeps in flight:
	// when a range scan misses the cache it issues reads for up to
	// PrefetchDepth-1 following sibling leaves at the same virtual
	// time, overlapping them on the device's internal lanes (the
	// read-ahead a real engine issues once it detects a sequential leaf
	// walk). 1 (the default) reads one leaf at a time.
	PrefetchDepth int

	// Content selects content mode (values materialized and written
	// through).
	Content bool
}

// NewConfig returns WiredTiger-flavoured defaults for a dataset of
// roughly datasetBytes. The cache scales with the dataset the way the
// paper's 10 MiB cache relates to its 200 GiB dataset (deliberately
// tiny), with a floor of a few leaves.
func NewConfig(datasetBytes int64) Config {
	cache := datasetBytes / 20000
	if cache < 256<<10 {
		cache = 256 << 10
	}
	pending := datasetBytes / 16
	if pending < 512<<10 {
		pending = 512 << 10
	}
	return Config{
		// 48 KiB models WiredTiger's effective reconciliation unit: the
		// in-memory page grows past leaf_page_max before it is split and
		// written out, so the average write-out is larger than the
		// nominal 32 KiB leaf.
		LeafPageBytes:          48 << 10,
		InternalPageBytes:      4 << 10,
		CacheBytes:             cache,
		CheckpointInterval:     60 * time.Second,
		CheckpointPendingBytes: pending,
		JournalSync:            true,
		CPUPutTime:             300 * time.Microsecond,
		CPUGetTime:             120 * time.Microsecond,
		CPUPerByte:             65 * time.Nanosecond,
		ChunkPages:             32,
	}
}

// Validate fills defaults and rejects nonsense.
func (c Config) Validate() (Config, error) {
	if c.LeafPageBytes <= 0 {
		return c, fmt.Errorf("btree: LeafPageBytes must be positive")
	}
	if c.InternalPageBytes <= 0 {
		c.InternalPageBytes = 4 << 10
	}
	if c.CacheBytes <= int64(2*c.LeafPageBytes) {
		c.CacheBytes = int64(8 * c.LeafPageBytes)
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 60 * time.Second
	}
	if c.CheckpointPendingBytes <= 0 {
		c.CheckpointPendingBytes = 8 << 20
	}
	if c.ChunkPages <= 0 {
		c.ChunkPages = 32
	}
	if c.PrefetchDepth < 1 {
		c.PrefetchDepth = 1
	}
	return c, nil
}
