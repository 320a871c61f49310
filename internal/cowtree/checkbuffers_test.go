package cowtree_test

import (
	"strings"
	"testing"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
)

// TestCheckAuditsBuffers pins Core.Check's audit of a Bε-tree's buffers:
// on a tree whose interiors hold buffered messages it passes; moving one
// message into the neighbouring child's buffer — still sorted, every
// count still exact — fails it on the routing, and a buffer size off by
// one byte fails it on the count. Each corruption is undone before the
// next, and Check passes again.
func TestCheckAuditsBuffers(t *testing.T) {
	l := stack.Small("betree", map[string]string{"node_bytes": "16384", "leaf_page_bytes": "2048"})
	l.RNG = sim.NewRNG(1)
	built, err := stack.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	e := built.Engine.(interface {
		engine.Engine
		Check() error
		Nodes() []*cowtree.Node
	})
	rng := sim.NewRNG(5)
	var now sim.Duration
	for i := 0; i < 4000; i++ {
		if now, err = e.Put(now, kv.EncodeKey(rng.Uint64n(3000)), nil, 100); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what, want string) {
		t.Helper()
		switch err := e.Check(); {
		case want == "" && err != nil:
			t.Fatalf("%s: %v", what, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Fatalf("%s: Check says %v, want an error with %q", what, err, want)
		}
	}
	check("the tree as built", "")

	// An interior with a buffered message whose child has a right
	// neighbour under the same node.
	var n *cowtree.Node
	ci := -1
	for _, cand := range e.Nodes() {
		if cand.Buf == nil {
			continue
		}
		for i, buf := range cand.Buf.Msgs[:len(cand.Buf.Msgs)-1] {
			if len(buf) > 0 {
				n, ci = cand, i
				break
			}
		}
		if n != nil {
			break
		}
	}
	if n == nil {
		t.Fatal("no interior holds a buffered message")
	}
	b := n.Buf
	from, to := b.Msgs[ci], b.Msgs[ci+1]
	last := from[len(from)-1]
	b.Msgs[ci] = from[:len(from)-1]
	b.Msgs[ci+1] = append([]cowtree.Record{last}, to...)
	b.Sizes[ci] -= last.Size()
	b.Sizes[ci+1] += last.Size()
	check("a message in its right neighbour's buffer", "holds a message for child")
	b.Msgs[ci], b.Msgs[ci+1] = from, to
	b.Sizes[ci] += last.Size()
	b.Sizes[ci+1] -= last.Size()
	check("the message back in place", "")

	b.Sizes[ci]++
	check("a buffer size one byte over", "its size says")
	b.Sizes[ci]--
	check("the size restored", "")
}
