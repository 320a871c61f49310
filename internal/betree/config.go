// Package betree implements a Bε-tree: a copy-on-write B-tree whose
// interior nodes reserve most of their capacity for per-child message
// buffers — one small key-sorted array per child, holding exactly the
// messages bound for that child and sized to what it holds. A write
// upserts a message into the root's buffer for the child covering its
// key; when a node's buffers outgrow its budget, the busiest child's
// whole array is handed one level down as a batch. Reads check, at each
// node of the descent, the one buffer of the child they follow.
//
// The I/O shape this produces sits between the two engines the paper
// evaluates: like the B+Tree, data lives in update-in-place (logically;
// copy-on-write physically) pages confined to one collection file, so
// the LBA footprint stays narrow; like the LSM, each leaf write carries
// a batch of updates, so application-level write amplification drops by
// the batch factor instead of paying a full page write per update. The
// batched downward flushes are the "buffered repacking" design of the
// parallelism-aware B+-tree variants in PAPERS.md (Roh et al.; Clay &
// Wortman's durable flash search tree).
//
// Unlike LSM compaction — which rewrites whole sorted runs sideways
// (level N and its key-overlapping files in level N+1) and re-sorts them
// into fresh files — a buffer flush moves a key-contiguous batch of
// messages one level down into a single existing child, dirtying only
// that child and its parent. There is no read-and-rewrite of unrelated
// cold data, which is why the Bε-tree's device write amplification sits
// below the LSM's at high update rates while keeping B+Tree-like point
// reads.
package betree

import (
	"fmt"
	"math"
	"time"
)

// Config holds the engine's tuning knobs.
type Config struct {
	// Epsilon is the Bε-tree design parameter in (0, 1]: interior nodes
	// of NodeBytes capacity spend NodeBytes^Epsilon bytes on pivots
	// (separator keys + child references, which sets the fanout) and the
	// rest on message buffers. Small ε means few children and large
	// buffers (write-optimized, more flush batching); ε -> 1 degenerates
	// into a B+Tree (all pivots, no buffer: updates go straight to the
	// leaves).
	Epsilon float64

	// NodeBytes is the total serialized budget of an interior node
	// (pivot section + message buffer).
	NodeBytes int

	// LeafPageBytes is the maximum serialized leaf size.
	LeafPageBytes int

	// CacheBytes bounds the leaf cache (interior nodes, including their
	// buffers, are pinned — the classic Bε-tree assumption that the
	// upper tree fits in RAM).
	CacheBytes int64

	// CheckpointInterval triggers a checkpoint when this much virtual
	// time has passed since the last one.
	CheckpointInterval time.Duration

	// CheckpointPendingBytes triggers a checkpoint when this many bytes
	// of freed extents await release (they only return to the allocator
	// at checkpoint commit).
	CheckpointPendingBytes int64

	// JournalSync syncs the journal on every update.
	JournalSync bool
	// DisableJournal turns journaling off entirely (ablations).
	DisableJournal bool

	// CPUPutTime / CPUGetTime model per-operation engine CPU cost;
	// CPUPerByte adds the payload-dependent part.
	CPUPutTime time.Duration
	CPUGetTime time.Duration
	CPUPerByte time.Duration

	// ChunkPages is the checkpoint I/O granularity per job step.
	ChunkPages int

	// Content selects content mode (values materialized and written
	// through; required for recovery).
	Content bool
}

// NewConfig returns Bε-tree defaults for a dataset of roughly
// datasetBytes. The cache is deliberately tiny relative to the dataset
// (the paper's 10 MiB cache vs 200 GiB dataset), like the B+Tree's.
// NodeBytes scales with the dataset (clamped): with the paper's 4 KB
// values a buffer must hold many messages per child for flushes to
// batch, which is why real Bε-trees (BetrFS) run multi-megabyte nodes —
// far larger than B+Tree pages.
func NewConfig(datasetBytes int64) Config {
	cache := datasetBytes / 20000
	if cache < 256<<10 {
		cache = 256 << 10
	}
	pending := datasetBytes / 16
	if pending < 512<<10 {
		pending = 512 << 10
	}
	nodeBytes := datasetBytes / 256
	if nodeBytes < 128<<10 {
		nodeBytes = 128 << 10
	}
	if nodeBytes > 8<<20 {
		nodeBytes = 8 << 20
	}
	return Config{
		Epsilon:                0.5,
		NodeBytes:              int(nodeBytes),
		LeafPageBytes:          48 << 10,
		CacheBytes:             cache,
		CheckpointInterval:     60 * time.Second,
		CheckpointPendingBytes: pending,
		JournalSync:            true,
		CPUPutTime:             250 * time.Microsecond,
		CPUGetTime:             130 * time.Microsecond,
		CPUPerByte:             65 * time.Nanosecond,
		ChunkPages:             32,
	}
}

// minPivotBytes is the smallest pivot section: the header plus room for
// two children of 16-byte separator keys.
const minPivotBytes = pageHeaderBytes + 2*(2+16+childRefBytes)

// Validate fills defaults and rejects nonsense.
func (c Config) Validate() (Config, error) {
	if c.Epsilon <= 0 || c.Epsilon > 1 {
		return c, fmt.Errorf("betree: Epsilon %v outside (0, 1]", c.Epsilon)
	}
	if c.NodeBytes <= 0 {
		c.NodeBytes = 64 << 10
	}
	if c.LeafPageBytes <= 0 {
		return c, fmt.Errorf("betree: LeafPageBytes must be positive")
	}
	if c.NodeBytes < 2*minPivotBytes {
		return c, fmt.Errorf("betree: NodeBytes %d too small", c.NodeBytes)
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
	return c, nil
}

// pivotBudget returns the serialized byte budget of an interior node's
// pivot section: NodeBytes^Epsilon, clamped to [minPivotBytes,
// NodeBytes].
func (c *Config) pivotBudget() int {
	b := int(math.Pow(float64(c.NodeBytes), c.Epsilon))
	if b < minPivotBytes {
		b = minPivotBytes
	}
	if b > c.NodeBytes {
		b = c.NodeBytes
	}
	return b
}

// bufferBudget returns the per-node message-buffer byte budget. Zero
// (ε = 1) means updates bypass buffering entirely.
func (c *Config) bufferBudget() int {
	return c.NodeBytes - c.pivotBudget()
}
