package replica

import (
	"bytes"
	"fmt"
	"testing"

	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// flatEngine holds one value for every key and allocates nothing, so
// whatever TestGroupOpAllocs counts is the group's own.
type flatEngine struct {
	lat sim.Duration
	val []byte // nil: the key is absent
}

func (e *flatEngine) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	e.val = value
	return now + e.lat, nil
}

func (e *flatEngine) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	e.val = nil
	return now + e.lat, nil
}

func (e *flatEngine) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	return now + e.lat, e.val, e.val != nil, nil
}

func (e *flatEngine) BeginGroupCommit() {}

func (e *flatEngine) EndGroupCommit(now sim.Duration) (sim.Duration, error) {
	return now + e.lat, nil
}

func (e *flatEngine) FlushAll(now sim.Duration) (sim.Duration, error) { return now, nil }
func (e *flatEngine) Quiesce(now sim.Duration) sim.Duration           { return now }
func (e *flatEngine) Close(now sim.Duration) (sim.Duration, error)    { return now, nil }
func (e *flatEngine) Stats() kv.EngineStats                           { return kv.EngineStats{} }
func (e *flatEngine) DiskUsageBytes() int64                           { return 0 }

var (
	_ engine.Engine         = (*flatEngine)(nil)
	_ engine.GroupCommitter = (*flatEngine)(nil)
)

// TestGroupOpAllocs gates the replica group's serving path: a write, a
// read, a quorum read that repairs a diverged member and a group commit
// allocate nothing, on chain and quorum groups of 3 and 5. Replica
// latencies descend with the index, so the quorum's ack sort has work
// to do every time.
func TestGroupOpAllocs(t *testing.T) {
	key, val, other := kv.EncodeKey(1), []byte("value"), []byte("stale")
	for _, mode := range []Mode{Chain, Quorum} {
		for _, n := range []int{3, 5} {
			engs := make([]*flatEngine, n)
			members := make([]Member, n)
			for i := range engs {
				engs[i] = &flatEngine{lat: sim.Duration(10 * (n - i))}
				members[i] = Member{Engine: engs[i]}
			}
			g, err := New(mode, members)
			if err != nil {
				t.Fatal(err)
			}
			var now sim.Duration
			type groupOp struct {
				name string
				run  func() error
			}
			ops := []groupOp{
				{"Delete", func() (err error) { now, err = g.Delete(now, key); return }},
				{"Put", func() (err error) { now, err = g.Put(now, key, val, 0); return }},
				{"Get", func() (err error) {
					var v []byte
					if now, v, _, err = g.Get(now, key); err == nil && !bytes.Equal(v, val) {
						err = fmt.Errorf("read %q, want %q", v, val)
					}
					return
				}},
				{"Begin/EndGroupCommit", func() (err error) {
					g.BeginGroupCommit()
					_, err = g.EndGroupCommit(now)
					return
				}},
			}
			if mode == Quorum {
				// The last replica diverges before every read; the read
				// must leave it repaired.
				ops = append(ops, groupOp{"Get with read-repair", func() (err error) {
					engs[n-1].val = other
					if now, _, _, err = g.Get(now, key); err == nil && !bytes.Equal(engs[n-1].val, val) {
						err = fmt.Errorf("replica %d still holds %q after the read", n-1, engs[n-1].val)
					}
					return
				}})
			}
			for _, op := range ops {
				var failed error
				avg := testing.AllocsPerRun(100, func() {
					if err := op.run(); err != nil {
						failed = err
					}
				})
				if failed != nil {
					t.Fatalf("%v R=%d %s: %v", mode, n, op.name, failed)
				}
				if avg != 0 {
					t.Errorf("%v R=%d %s allocates %.2f times, want 0", mode, n, op.name, avg)
				}
			}
		}
	}
}
