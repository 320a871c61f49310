package store_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// rendezvous is a meeting point for n parties: arrive returns true once
// all n are inside it at the same time, false if that takes over 5 s.
type rendezvous struct {
	n       int32
	arrived atomic.Int32
	all     chan struct{}
}

func (r *rendezvous) arrive() bool {
	if r.arrived.Add(1) == r.n {
		close(r.all)
	}
	select {
	case <-r.all:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// meetingEngine's FlushAll returns only once every shard's engine is
// inside FlushAll.
type meetingEngine struct {
	pureEngine
	meet *rendezvous
}

func (e *meetingEngine) FlushAll(now sim.Duration) (sim.Duration, error) {
	if !e.meet.arrive() {
		return now, errors.New("the other shards never entered FlushAll")
	}
	return now, nil
}

// TestLifecycleRunsShardsConcurrently: the lifecycle calls fan out. A
// store that flushed its shards one after another would leave the first
// waiting for the rest until the timeout.
func TestLifecycleRunsShardsConcurrently(t *testing.T) {
	const shards = 4
	meet := &rendezvous{n: shards, all: make(chan struct{})}
	st, err := store.New(shards, func(int) (store.Stack, error) {
		return store.Stack{Engine: &meetingEngine{meet: meet}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.FlushAll(0); err != nil {
		t.Fatalf("FlushAll ran the %d shards serially: %v", shards, err)
	}
}
