package sim

import (
	"testing"
	"time"
)

type countJob struct {
	chunks int
	chunk  Duration
}

func (j *countJob) Step(now Duration) (Duration, bool) {
	j.chunks--
	return now + j.chunk, j.chunks <= 0
}

func TestWorkerPump(t *testing.T) {
	w := NewWorker("test")
	w.Submit(&countJob{chunks: 10, chunk: time.Millisecond})
	// Pump to 5ms: exactly 5 chunks should have run (the 5th ends at 5ms,
	// then the clock is no longer < target).
	end := w.Pump(5 * time.Millisecond)
	if end != 5*time.Millisecond {
		t.Fatalf("Pump end %v, want 5ms", end)
	}
	if w.QueueLen() != 1 {
		t.Fatalf("job should still be queued")
	}
	// Pump far ahead: the job finishes at 10ms and the worker then
	// catches up to the target.
	end = w.Pump(time.Second)
	if end != time.Second {
		t.Fatalf("Pump end %v, want 1s", end)
	}
	if w.QueueLen() != 0 {
		t.Fatalf("queue should be empty")
	}
}

func TestWorkerRunUntilDrained(t *testing.T) {
	w := NewWorker("drain")
	w.Submit(&countJob{chunks: 3, chunk: 2 * time.Millisecond})
	w.Submit(&countJob{chunks: 2, chunk: time.Millisecond})
	end := w.RunUntilDrained()
	if end != 8*time.Millisecond {
		t.Fatalf("drain end %v, want 8ms", end)
	}
}

func TestWorkerIdlePuller(t *testing.T) {
	w := NewWorker("puller")
	produced := 0
	w.SetIdlePuller(func() Job {
		if produced >= 3 {
			return nil
		}
		produced++
		return &countJob{chunks: 1, chunk: time.Millisecond}
	})
	end := w.Pump(10 * time.Millisecond)
	if produced != 3 {
		t.Fatalf("idle puller produced %d jobs, want 3", produced)
	}
	if end != 10*time.Millisecond {
		t.Fatalf("worker should catch up to target, got %v", end)
	}
}

func TestWorkerStuckJobPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for stuck job")
		}
	}()
	w := NewWorker("stuck")
	w.Submit(JobFunc(func(now Duration) (Duration, bool) { return now, false }))
	w.Pump(time.Second)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of bounds: %d", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(99)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestRNGUniformity(t *testing.T) {
	// Chi-square-ish sanity check over 16 buckets.
	r := NewRNG(123)
	var buckets [16]int
	const n = 160000
	for i := 0; i < n; i++ {
		buckets[r.Intn(16)]++
	}
	want := n / 16
	for i, got := range buckets {
		if got < want*9/10 || got > want*11/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", i, got, want)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(5)
	s := r.Split()
	// The split stream must differ from the parent's continuing stream.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == s.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream collided with parent %d times", same)
	}
}

func TestWorkerAccessors(t *testing.T) {
	w := NewWorker("acc")
	if w.Name() != "acc" {
		t.Fatalf("Name = %q", w.Name())
	}
	if w.Now() != 0 {
		t.Fatalf("Now = %v", w.Now())
	}
}

func TestRNGUint64nBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(17); v >= 17 {
			t.Fatalf("Uint64n out of bounds: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Uint64n(0)")
		}
	}()
	r.Uint64n(0)
}

func TestWorkerStepOnce(t *testing.T) {
	w := NewWorker("step")
	if _, ok := w.StepOnce(); ok {
		t.Fatal("empty worker should not progress")
	}
	w.Submit(&countJob{chunks: 2, chunk: time.Millisecond})
	end, ok := w.StepOnce()
	if !ok || end != time.Millisecond {
		t.Fatalf("first step: %v %v", end, ok)
	}
	if w.QueueLen() != 1 {
		t.Fatal("job should still be queued after partial step")
	}
	end, ok = w.StepOnce()
	if !ok || end != 2*time.Millisecond {
		t.Fatalf("second step: %v %v", end, ok)
	}
	if w.QueueLen() != 0 {
		t.Fatal("job should be done")
	}
	// StepOnce pulls from the idle puller too.
	pulled := false
	w.SetIdlePuller(func() Job {
		if pulled {
			return nil
		}
		pulled = true
		return &countJob{chunks: 1, chunk: time.Millisecond}
	})
	if _, ok := w.StepOnce(); !ok {
		t.Fatal("StepOnce should pull from the idle puller")
	}
}

func TestRunUntilDrainedWithPuller(t *testing.T) {
	w := NewWorker("drain2")
	produced := 0
	w.SetIdlePuller(func() Job {
		if produced >= 2 {
			return nil
		}
		produced++
		return &countJob{chunks: 1, chunk: time.Millisecond}
	})
	end := w.RunUntilDrained()
	if produced != 2 || end != 2*time.Millisecond {
		t.Fatalf("drained %d jobs ending %v", produced, end)
	}
}
