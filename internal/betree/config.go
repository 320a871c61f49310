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
//
// Everything the Bε-tree shares with the B+Tree lives in internal/cowtree,
// whose Core the Tree embeds: the node table, leaf cache, copy-on-write
// write, checkpoints, Open/Recover, the kv.Engine lifecycle, the
// operation bracket, the shared Tuning and the node itself — a Bε-tree
// node is a plain cowtree.Node, whose leaf entries, interior buffers
// (cowtree.Buffers, Interior.Buf), upserts, splits and image are
// cowtree's. This package keeps its node magic and the policy: the ε
// budgets, when and what to flush, the batch apply to a leaf, the
// overfull drain, the scan merge, the two recovery hooks, and its own
// knobs (epsilon, node_bytes). A checkpoint does not push buffered
// messages to the leaves: they are durable inside the checkpointed
// interior node images, as a real Bε-tree persists its buffers.
package betree

import (
	"fmt"
	"math"
	"time"

	"ptsbench/internal/cowtree"
)

// Config holds the engine's tuning knobs: the tuning every copy-on-write
// tree shares, plus the two that shape the Bε-tree's interior nodes.
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

	cowtree.Tuning
}

// NewConfig returns Bε-tree defaults for a dataset of roughly
// datasetBytes (see cowtree.NewTuning). NodeBytes scales with the
// dataset (clamped): with the paper's 4 KB values a buffer must hold
// many messages per child for flushes to batch, which is why real
// Bε-trees (BetrFS) run multi-megabyte nodes — far larger than B+Tree
// pages.
func NewConfig(datasetBytes int64) Config {
	nodeBytes := datasetBytes / 256
	if nodeBytes < 128<<10 {
		nodeBytes = 128 << 10
	}
	if nodeBytes > 8<<20 {
		nodeBytes = 8 << 20
	}
	return Config{
		Epsilon:   0.5,
		NodeBytes: int(nodeBytes),
		Tuning:    cowtree.NewTuning(datasetBytes, 250*time.Microsecond, 130*time.Microsecond),
	}
}

// minPivotBytes is the smallest pivot section: the header plus room for
// two children of 16-byte separator keys.
const minPivotBytes = cowtree.PageHeaderBytes + 2*(2+16+cowtree.ChildRefBytes)

// Validate fills defaults and rejects nonsense.
func (c Config) Validate() (Config, error) {
	if c.Epsilon <= 0 || c.Epsilon > 1 {
		return c, fmt.Errorf("betree: Epsilon %v outside (0, 1]", c.Epsilon)
	}
	if c.NodeBytes <= 0 {
		c.NodeBytes = 64 << 10
	}
	var err error
	if c.Tuning, err = c.Tuning.Validate("betree"); err != nil {
		return c, err
	}
	if c.NodeBytes < 2*minPivotBytes {
		return c, fmt.Errorf("betree: NodeBytes %d too small", c.NodeBytes)
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
