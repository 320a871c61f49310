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

// checkedTree builds engine's tree on a small stack with the given
// tunables, puts 4,000 random keys of a 3,000-key space, and returns its
// nodes and a check that Core.Check passes (want "") or fails with an
// error containing want; the tree as built must pass.
func checkedTree(t *testing.T, engineName string, tunables map[string]string) ([]*cowtree.Node, func(what, want string)) {
	t.Helper()
	l := stack.Small(engineName, tunables)
	l.RNG = sim.NewRNG(1)
	built, err := stack.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { built.Close() })
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
	return e.Nodes(), check
}

// TestCheckAuditsBuffers pins Core.Check's audit of a Bε-tree's buffers:
// on a tree whose interiors hold buffered messages it passes; moving one
// message into the neighbouring child's buffer — still sorted, every
// count still exact — fails it on the routing, and a buffer size off by
// one byte fails it on the count. Each corruption is undone before the
// next, and Check passes again.
func TestCheckAuditsBuffers(t *testing.T) {
	nodes, check := checkedTree(t, "betree", map[string]string{"node_bytes": "16384", "leaf_page_bytes": "2048"})

	// An interior with a buffered message whose child has a right
	// neighbour under the same node.
	var n *cowtree.Node
	ci := -1
	for _, cand := range nodes {
		if cand.Leaf {
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
	b := &n.Buf
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

// TestCheckAuditsNodeLayout pins Core.Check's audit of the node layout
// in both engines: a leaf given an interior part fails it, an interior
// whose part is taken away fails it, and so does an interior whose
// buffers disagree with the engine's (a Bε-tree interior without them,
// a B+Tree interior with them). Each corruption is undone before the
// next, and Check passes again.
func TestCheckAuditsNodeLayout(t *testing.T) {
	for _, c := range []struct {
		engine  string
		tunable map[string]string
	}{
		{"btree", map[string]string{"leaf_page_bytes": "2048", "internal_page_bytes": "512"}},
		{"betree", map[string]string{"node_bytes": "16384", "leaf_page_bytes": "2048"}},
	} {
		t.Run(c.engine, func(t *testing.T) {
			nodes, check := checkedTree(t, c.engine, c.tunable)
			var leaf, interior *cowtree.Node
			for _, n := range nodes {
				if n.Leaf && leaf == nil {
					leaf = n
				} else if !n.Leaf && interior == nil {
					interior = n
				}
			}
			if leaf == nil || interior == nil {
				t.Fatal("the tree has no interior")
			}

			leaf.Interior = &cowtree.Interior{}
			check("a leaf with an interior part", "has an interior part")
			leaf.Interior = nil
			check("the leaf restored", "")

			part := interior.Interior
			interior.Interior = nil
			check("an interior without its part", "has no interior part")
			interior.Interior = part
			check("the interior restored", "")

			buf := interior.Buf
			if buf.Msgs != nil {
				interior.Buf = cowtree.Buffers{}
			} else {
				interior.Buf = cowtree.Buffers{Msgs: make([][]cowtree.Record, len(interior.Children)), Sizes: make([]int, len(interior.Children))}
			}
			check("an interior's buffers against the engine's", "the engine keeps them")
			interior.Buf = buf
			check("the buffers restored", "")
		})
	}
}
