package sim

// MultiResource models a shared dispatch queue feeding N independent
// FIFO service lanes — the internal parallelism of an SSD, where the
// host-visible queue fans out over channels × ways (dies). The caller
// places each request on a lane; requests on different lanes run
// concurrently, and each lane is strict FIFO: a request submitted at
// virtual time t with service time s completes at max(t, lane busy-until)
// + s, so later submitters wait behind everything the lane already
// accepted, as commands queued on one die do. Like all sim primitives it
// is single-threaded and deterministic.
type MultiResource struct {
	lanes     []Duration // per-lane busyUntil
	busyTotal Duration
}

// NewMultiResource returns an idle resource with n service lanes
// (n < 1 is treated as 1).
func NewMultiResource(n int) *MultiResource {
	if n < 1 {
		n = 1
	}
	return &MultiResource{lanes: make([]Duration, n)}
}

// Lanes returns the number of service lanes.
func (m *MultiResource) Lanes() int { return len(m.lanes) }

// AcquireLane queues a request on a specific lane (placement-aware
// callers use it to model data striped over channels and ways) and
// returns its completion time.
func (m *MultiResource) AcquireLane(lane int, now, service Duration) Duration {
	start := now
	if m.lanes[lane] > start {
		start = m.lanes[lane]
	}
	done := start + service
	m.lanes[lane] = done
	m.busyTotal += service
	return done
}

// BusyUntil reports the time at which the whole resource drains (the
// maximum over lanes) — callers use it to quiesce.
func (m *MultiResource) BusyUntil() Duration {
	var max Duration
	for _, b := range m.lanes {
		if b > max {
			max = b
		}
	}
	return max
}

// BusyTotal reports the cumulative service time ever accepted, summed
// over lanes. Dividing by (elapsed time × Lanes()) yields utilization.
func (m *MultiResource) BusyTotal() Duration { return m.busyTotal }
