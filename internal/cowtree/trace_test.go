package cowtree_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ptsbench/internal/betree"
	"ptsbench/internal/blockdev"
	"ptsbench/internal/btree"
	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
)

// The golden engine trace pins what core.Result has no field for: the
// leaf cache's counters, the checkpoint counters and scan prefetch under
// eviction, for both tree engines over the shared core. Each case runs a
// seeded mix of Put/Get/Delete/Scan on stack.Small with a checkpoint
// interval short enough that checkpoints overlap foreground splits and
// eviction write-backs, and records a hash over every op's completion
// time and result, then every counter the engine and the device expose;
// content-mode cases then recover on the same device without quiescing
// (an in-flight checkpoint is simply abandoned) and record the recovered
// tree the same way. (Counted once with throwaway instrumentation: in
// the tight B+Tree cases a checkpoint job finds ~50 snapshot nodes
// already written back by an eviction and writes ~1,000 split-orphaned
// children through writeSubtreeClean; the Bε-tree cases 5 and ~250.) A
// change to the cache, the write-back or the checkpoint job that is
// meant to be behaviour-neutral leaves the fixture byte-identical.
//
// Regenerate (only when a deliberate behavioural change is made):
//
//	go test ./internal/cowtree -run TestGoldenEngineTrace -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden engine trace fixture")

const (
	traceOps      = 20000
	traceKeys     = 4000
	traceLeafSize = 4096
)

// tree is what both engines expose beyond engine.Engine.
type tree interface {
	engine.Engine
	Depth() int
	NodeCount() (leaves, interiors int)
}

type traceCase struct {
	name     string
	engine   string
	content  bool
	tunables map[string]string
}

func traceCases() []traceCase {
	caches := []struct {
		name  string
		bytes int
	}{
		{"tight", 4 * traceLeafSize}, // ≈ 4 leaves: most ops evict
		{"roomy", 8 << 20},           // nothing is ever evicted
	}
	engines := []struct {
		name     string
		engine   string
		tunables map[string]string
	}{
		{"btree", "btree", map[string]string{"internal_page_bytes": "512"}},
		{"btree-prefetch4", "btree", map[string]string{"internal_page_bytes": "512", "prefetch_depth": "4"}},
		{"betree", "betree", map[string]string{"node_bytes": "8192", "epsilon": "0.7"}},
	}
	var out []traceCase
	for _, e := range engines {
		for _, content := range []bool{false, true} {
			for _, c := range caches {
				tun := map[string]string{
					"leaf_page_bytes":     fmt.Sprint(traceLeafSize),
					"cache_bytes":         fmt.Sprint(c.bytes),
					"checkpoint_interval": "60s",
					"chunk_pages":         "2",
				}
				for k, v := range e.tunables {
					tun[k] = v
				}
				mode := "accounting"
				if content {
					mode = "content"
				}
				out = append(out, traceCase{
					name:     e.name + "/" + mode + "/" + c.name,
					engine:   e.engine,
					content:  content,
					tunables: tun,
				})
			}
		}
	}
	return out
}

// flat renders every field of a struct as name=value, sorted by name,
// with embedded structs flattened — so the fixture lists the counters,
// not how the structs that carry them happen to be nested.
func flat(v any) string {
	var kvs []string
	var walk func(rv reflect.Value)
	walk = func(rv reflect.Value) {
		for i := 0; i < rv.NumField(); i++ {
			f := rv.Type().Field(i)
			if f.Anonymous && f.Type.Kind() == reflect.Struct {
				walk(rv.Field(i))
				continue
			}
			kvs = append(kvs, fmt.Sprintf("%s=%v", f.Name, rv.Field(i).Interface()))
		}
	}
	walk(reflect.ValueOf(v))
	sort.Strings(kvs)
	return strings.Join(kvs, " ")
}

// describe renders a tree's counters and shape.
func describe(e tree, dev any, disk int64) string {
	var io any
	switch t := e.(type) {
	case *btree.Tree:
		io = t.IO()
	case *betree.Tree:
		io = t.IO()
	}
	leaves, interiors := e.NodeCount()
	return fmt.Sprintf("  io: %s\n  stats: %s\n  dev: %s\n  disk=%d depth=%d leaves=%d interiors=%d\n",
		flat(io), flat(e.Stats()), flat(dev), disk, e.Depth(), leaves, interiors)
}

// hashEntries folds scan results into h.
func hashEntries(h interface{ Write([]byte) (int, error) }, entries []kv.Entry) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(entries)))
	for _, e := range entries {
		h.Write(e.Key)
		put(uint64(e.ValueLen))
		put(e.Seq)
		put(uint64(len(e.Value)))
		h.Write(e.Value)
	}
}

// writeHasher folds every write a device takes into h: page offset,
// page count and the bytes written.
type writeHasher struct {
	blockdev.Dev
	h hash.Hash
}

func (w *writeHasher) WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:], uint64(off))
	binary.LittleEndian.PutUint32(b[8:], uint32(n))
	w.h.Write(b[:])
	w.h.Write(data)
	return w.Dev.WriteErr(now, off, n, data)
}

func runTrace(t *testing.T, c traceCase) string {
	l := stack.Small(c.engine, c.tunables)
	l.Content = c.content
	l.RNG = sim.NewRNG(1)
	writes := &writeHasher{h: sha256.New()}
	if c.content {
		l.WrapDev = func(d blockdev.Dev) blockdev.Dev {
			writes.Dev = d
			return writes
		}
	}
	built, err := stack.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	e := built.Engine.(tree)

	rng := sim.NewRNG(24)
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	key := make([]byte, kv.KeySize)
	val := make([]byte, 512)
	var now sim.Duration
	for op := 0; op < traceOps; op++ {
		kv.AppendKey(key, rng.Uint64n(traceKeys))
		vlen := 100 + rng.Intn(300)
		kind := rng.Intn(100)
		switch {
		case kind < 55:
			var v []byte
			if c.content {
				v = val[:vlen]
				kv.SynthValue(v, key, uint64(op))
			}
			now, err = e.Put(now, key, v, vlen)
		case kind < 80:
			var got []byte
			var found bool
			now, got, found, err = e.Get(now, key)
			if found {
				put(1)
			}
			put(uint64(len(got)))
			h.Write(got)
		case kind < 88:
			now, err = e.Delete(now, key)
		default:
			var entries []kv.Entry
			now, entries, err = e.Scan(now, key, 1+rng.Intn(60))
			hashEntries(h, entries)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		put(uint64(now))
	}
	var out strings.Builder
	fmt.Fprintf(&out, "== %s\n  ops=%x end=%d\n", c.name, h.Sum(nil), now)
	out.WriteString(describe(e, built.Host.Counters(), e.DiskUsageBytes()))

	// The scenario must exercise what it claims to pin.
	switch tr := e.(type) {
	case *btree.Tree:
		io := tr.IO()
		if io.Checkpoints < 20 || io.LeafSplits == 0 || io.InternalSplits == 0 {
			t.Fatalf("scenario too tame: %+v", io)
		}
		if strings.HasSuffix(c.name, "tight") && io.EvictionWrites == 0 {
			t.Fatalf("tight cache never wrote back: %+v", io)
		}
	case *betree.Tree:
		io := tr.IO()
		if io.Checkpoints < 20 || io.LeafSplits == 0 || io.InteriorSplits == 0 || io.BufferFlushes == 0 {
			t.Fatalf("scenario too tame: %+v", io)
		}
		if strings.HasSuffix(c.name, "tight") && io.EvictionWrites == 0 {
			t.Fatalf("tight cache never wrote back: %+v", io)
		}
	}

	if !c.content {
		return out.String()
	}
	re, rnow, err := built.Recover(sim.NewRNG(2), now)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	r := re.(tree)
	rh := sha256.New()
	_, entries, err := r.Scan(rnow, make([]byte, kv.KeySize), traceKeys+1)
	if err != nil {
		t.Fatalf("scan after recovery: %v", err)
	}
	hashEntries(rh, entries)
	fmt.Fprintf(&out, "  recovered: end=%d entries=%d scan=%x\n", rnow, len(entries), rh.Sum(nil))
	out.WriteString(describe(r, built.Host.Counters(), r.DiskUsageBytes()))
	fmt.Fprintf(&out, "  writes=%x\n", writes.h.Sum(nil))
	return out.String()
}

func TestGoldenEngineTrace(t *testing.T) {
	var got strings.Builder
	for _, c := range traceCases() {
		got.WriteString(runTrace(t, c))
	}
	path := filepath.Join("testdata", "golden_engine_trace.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to create): %v", err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("engine trace diverges from %s in %s, line %d\ngot:  %s\nwant: %s", path, section, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("engine trace diverges from %s in length: %d lines, want %d", path, len(gl), len(wl))
}
