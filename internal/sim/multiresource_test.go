package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestMultiResourceLaneFIFO(t *testing.T) {
	m := NewMultiResource(3)
	// First request at t=0 with 10ms service completes at 10ms.
	if done := m.AcquireLane(1, 0, 10*time.Millisecond); done != 10*time.Millisecond {
		t.Fatalf("first completion %v, want 10ms", done)
	}
	// Second request at t=2ms on the same lane queues behind the first.
	if done := m.AcquireLane(1, 2*time.Millisecond, 5*time.Millisecond); done != 15*time.Millisecond {
		t.Fatalf("second completion %v, want 15ms", done)
	}
	// A request after the lane went idle starts immediately.
	if done := m.AcquireLane(1, time.Second, time.Millisecond); done != time.Second+time.Millisecond {
		t.Fatalf("third completion %v", done)
	}
	if m.BusyTotal() != 16*time.Millisecond {
		t.Fatalf("BusyTotal %v, want 16ms", m.BusyTotal())
	}
	if m.BusyUntil() != time.Second+time.Millisecond {
		t.Fatalf("BusyUntil %v, want 1.001s", m.BusyUntil())
	}
}

func TestMultiResourceOverlap(t *testing.T) {
	m := NewMultiResource(2)
	// Two requests at t=0 on distinct lanes overlap fully.
	d1 := m.AcquireLane(0, 0, 10*time.Millisecond)
	d2 := m.AcquireLane(1, 0, 10*time.Millisecond)
	if d1 != 10*time.Millisecond || d2 != 10*time.Millisecond {
		t.Fatalf("overlapping requests: %v, %v (want both 10ms)", d1, d2)
	}
	// A third on lane 0 queues behind the first.
	if d3 := m.AcquireLane(0, 0, time.Millisecond); d3 != 11*time.Millisecond {
		t.Fatalf("third request %v, want 11ms", d3)
	}
	if m.BusyTotal() != 21*time.Millisecond {
		t.Fatalf("BusyTotal %v, want 21ms", m.BusyTotal())
	}
}

func TestMultiResourceAcquireLaneFIFO(t *testing.T) {
	m := NewMultiResource(4)
	// Requests pinned to one lane serialize; another lane stays free.
	d1 := m.AcquireLane(2, 0, 5*time.Millisecond)
	d2 := m.AcquireLane(2, time.Millisecond, 5*time.Millisecond)
	if d1 != 5*time.Millisecond || d2 != 10*time.Millisecond {
		t.Fatalf("lane FIFO: %v, %v", d1, d2)
	}
	if d := m.AcquireLane(0, time.Millisecond, time.Millisecond); d != 2*time.Millisecond {
		t.Fatalf("free lane should start immediately: %v", d)
	}
	if m.BusyUntil() != 10*time.Millisecond {
		t.Fatalf("BusyUntil %v, want 10ms", m.BusyUntil())
	}
}

// Property: on every lane, completion times are non-decreasing in
// submission order and never before submission, whatever the (time,
// service, lane) sequence; BusyUntil is the latest completion and
// BusyTotal the sum of the services.
func TestMultiResourceMonotoneProperty(t *testing.T) {
	f := func(times, services []uint32, lanes []uint8) bool {
		m := NewMultiResource(4)
		n := min(len(times), len(services), len(lanes))
		prev := make([]Duration, m.Lanes())
		var now, last, total Duration
		for i := 0; i < n; i++ {
			now += Duration(times[i] % 1000) // submissions move forward
			lane, svc := int(lanes[i])%m.Lanes(), Duration(services[i]%100000)
			done := m.AcquireLane(lane, now, svc)
			if done < prev[lane] || done < now+svc {
				return false
			}
			prev[lane], last, total = done, max(last, done), total+svc
		}
		return m.BusyUntil() == last && m.BusyTotal() == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultiResourceLanes(t *testing.T) {
	m := NewMultiResource(0) // clamps to 1
	if m.Lanes() != 1 {
		t.Fatalf("Lanes = %d, want 1", m.Lanes())
	}
	if m.BusyUntil() != 0 {
		t.Fatal("new resource should be idle")
	}
	m.AcquireLane(0, 0, 3*time.Millisecond)
	if m.BusyUntil() != 3*time.Millisecond {
		t.Fatalf("BusyUntil = %v, want 3ms", m.BusyUntil())
	}
}
