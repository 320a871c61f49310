package store

import (
	"sort"
	"sync"
)

// WorkerPump is the pump this package shipped through PR 19, kept as a
// test-only reference over an unexported Store: one persistent
// goroutine per shard executing closures off a channel, a WaitGroup
// barrier at the end of every pump, per-shard completions appended in
// shard order and sorted back into submission order (a 1-shard store
// runs on the caller and sorts only an out-of-order intake).
// TestPumpMatchesReference holds Store.Pump to it completion for
// completion; BenchmarkPump measures the two against each other, which
// is how anyone re-checks on their own machine below which intake size
// the handoff costs more than the work it moves.
type WorkerPump struct {
	s     *Store
	chs   []chan func()
	wg    sync.WaitGroup
	comps []Completion
}

// NewWorkerPump starts the reference's workers over s (none on a
// 1-shard store). s must then be pumped through the reference only.
func NewWorkerPump(s *Store) *WorkerPump {
	w := &WorkerPump{s: s}
	if len(s.shards) == 1 {
		return w
	}
	for range s.shards {
		ch := make(chan func(), 1)
		w.chs = append(w.chs, ch)
		go func() {
			for f := range ch {
				f()
			}
		}()
	}
	return w
}

// Close stops the workers.
func (w *WorkerPump) Close() {
	for _, ch := range w.chs {
		close(ch)
	}
}

// Pump services every submitted operation, shards in parallel, and
// returns the completions in global submission order. The returned
// slice is reused by the next Pump.
func (w *WorkerPump) Pump() []Completion {
	s := w.s
	w.comps = w.comps[:0]
	if s.pending == 0 {
		return w.comps
	}
	needSort := len(s.shards) > 1
	if len(s.shards) == 1 {
		sh := s.shards[0]
		needSort = sh.unsorted
		sh.process()
	} else {
		n := 0
		for _, sh := range s.shards {
			if len(sh.intake) > 0 {
				n++
			}
		}
		w.wg.Add(n)
		for i, sh := range s.shards {
			if len(sh.intake) == 0 {
				continue
			}
			sh := sh
			w.chs[i] <- func() {
				sh.process()
				w.wg.Done()
			}
		}
		w.wg.Wait()
	}
	for _, sh := range s.shards {
		w.comps = append(w.comps, sh.comps...)
		sh.comps = sh.comps[:0]
		sh.intake = sh.intake[:0]
		sh.unsorted = false
	}
	if needSort {
		sort.Slice(w.comps, func(i, j int) bool { return w.comps[i].Seq < w.comps[j].Seq })
	}
	s.pending = 0
	return w.comps
}
