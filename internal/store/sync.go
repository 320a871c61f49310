package store

import (
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// Sync is a synchronous facade over the asynchronous pipeline: every
// call submits one operation and pumps it to completion, so the full
// serving path — key routing, shard intake, clock merging — sits under
// the plain engine-shaped surface. The engine-conformance suite drives
// a sharded store through it, holding the store to the same behavioural
// contract as a single engine.
type Sync struct {
	S *Store
}

func (s *Sync) do(op Op) Completion {
	s.S.Submit(op)
	comps := s.S.Pump()
	return comps[len(comps)-1]
}

// syncKeyID routes a key by its id; a key of another width than
// kv.KeySize, which the engines refuse, routes as id 0.
func syncKeyID(key []byte) uint64 {
	id, _ := kv.DecodeKey(key)
	return id
}

// Put implements kv.Engine.
func (s *Sync) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	c := s.do(Op{Kind: Put, Submit: now, KeyID: syncKeyID(key), Key: key, Value: value, ValueLen: valueLen})
	return c.Done, c.Err
}

// Get implements kv.Engine.
func (s *Sync) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	c := s.do(Op{Kind: Get, Submit: now, KeyID: syncKeyID(key), Key: key})
	return c.Done, c.Value, c.Found, c.Err
}

// Delete routes a delete to the owning shard's engine.
func (s *Sync) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	c := s.do(Op{Kind: Delete, Submit: now, KeyID: syncKeyID(key), Key: key})
	return c.Done, c.Err
}

// Scan merges a range read across all shards.
func (s *Sync) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	return s.S.Scan(now, start, limit)
}

// FlushAll flushes every shard.
func (s *Sync) FlushAll(now sim.Duration) (sim.Duration, error) {
	return s.S.FlushAll(now)
}

// Quiesce drains every shard.
func (s *Sync) Quiesce(now sim.Duration) sim.Duration {
	return s.S.Quiesce(now)
}

// Stats aggregates engine statistics over shards.
func (s *Sync) Stats() kv.EngineStats { return s.S.Stats() }

// DiskUsageBytes aggregates disk footprint over shards.
func (s *Sync) DiskUsageBytes() int64 { return s.S.DiskUsageBytes() }
