package sim

// Job is a unit of background work executed incrementally by a Worker.
// Each call to Step performs one chunk of work starting at the worker's
// local time and returns the virtual time at which the chunk finished,
// plus whether the job is complete. Step must make progress: returning
// done=false with an unchanged time would spin the scheduler, so the
// Worker aborts (panics) if it detects a stuck job.
type Job interface {
	// Step executes the next chunk of the job at virtual time now and
	// returns the completion time of the chunk and whether the job has
	// finished.
	Step(now Duration) (end Duration, done bool)
}

// Worker is a background actor with its own local clock and a FIFO queue
// of jobs. Pump drives the worker until its local clock catches up with
// the foreground clock; jobs execute in submission order, one at a time,
// mirroring a single background thread (e.g. one compaction thread).
type Worker struct {
	name string
	now  Duration
	// queue[head:] are the waiting jobs. Dequeuing advances head and the
	// slice is reset (keeping its capacity) whenever it drains, so a
	// steady submit/drain cycle allocates nothing — the previous
	// queue = queue[1:] dequeue permanently lost capacity and forced a
	// fresh allocation on every post-drain Submit.
	queue []Job
	head  int
	// onIdle, if non-nil, is consulted when the queue drains; it may
	// return a new job (pull-style scheduling). See SetIdlePuller.
	onIdle func() Job
}

// NewWorker returns a named worker with an empty queue. The name appears
// in diagnostics only.
func NewWorker(name string) *Worker {
	return &Worker{name: name}
}

// QueueLen reports the number of jobs waiting, including the one in
// progress.
func (w *Worker) QueueLen() int { return len(w.queue) - w.head }

// Submit appends a job to the worker's queue.
func (w *Worker) Submit(j Job) { w.queue = append(w.queue, j) }

// pop removes the queue's front job, recycling the backing array when
// the queue drains.
func (w *Worker) pop() {
	w.queue[w.head] = nil // drop the reference so the job can be collected
	w.head++
	if w.head == len(w.queue) {
		w.queue = w.queue[:0]
		w.head = 0
	}
}

// SetIdlePuller registers a callback invoked whenever the worker's queue
// is empty during Pump; it may return a new job to run, or nil if there is
// no work. This lets an engine generate compaction work lazily instead of
// eagerly enqueueing it.
func (w *Worker) SetIdlePuller(f func() Job) { w.onIdle = f }

// pull asks the idle puller for a job when the queue is empty.
func (w *Worker) pull() {
	if w.QueueLen() == 0 && w.onIdle != nil {
		if j := w.onIdle(); j != nil {
			w.queue = append(w.queue, j)
		}
	}
}

// step runs one chunk of the front job, advances the local clock to its
// end (never backwards), and pops the job if it finished, reporting
// whether it did.
func (w *Worker) step() (done bool) {
	end, done := w.queue[w.head].Step(w.now)
	if end < w.now {
		end = w.now
	}
	if !done && end == w.now {
		panic("sim: job made no progress on worker " + w.name)
	}
	w.now = end
	if done {
		w.pop()
	}
	return done
}

// Pump runs queued jobs until the worker's local clock reaches target or
// no work remains. It returns the worker's local time after pumping.
func (w *Worker) Pump(target Duration) Duration {
	if w.now < target {
		w.pull()
	}
	for w.now < target && w.QueueLen() > 0 {
		if w.step() {
			w.pull()
		}
	}
	// A worker with no work is considered caught up.
	if w.QueueLen() == 0 && w.now < target {
		w.now = target
	}
	return w.now
}

// StepOnce executes a single chunk of the worker's current job (pulling
// one from the idle puller if the queue is empty) regardless of any
// target time. It returns the worker's local time afterwards and whether
// any progress was made. Engines use it to wait out write stalls: they
// step the background workers until the stall condition clears.
func (w *Worker) StepOnce() (Duration, bool) {
	w.pull()
	if w.QueueLen() == 0 {
		return w.now, false
	}
	w.step()
	return w.now, true
}

// RunUntilDrained runs all queued work (and any work the idle puller
// produces) to completion regardless of the target time, returning the
// local time at which the queue drained. It is used at experiment
// shutdown to quiesce engines.
func (w *Worker) RunUntilDrained() Duration {
	for {
		w.pull()
		if w.QueueLen() == 0 {
			return w.now
		}
		w.step()
	}
}
