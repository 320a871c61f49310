package kvtest

import (
	"fmt"
	"testing"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/deverr"
	"ptsbench/internal/engine"
	"ptsbench/internal/faultdev"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
)

// retryAttempts bounds the block-layer retry loop. Each attempt redraws
// its verdict from the plan's error stream, so at the low probabilities
// the faulty conformance suite uses, surfacing a transient error past
// the bound is effectively impossible (p^7).
const retryAttempts = 7

// RetryDev is a block-layer retry shim over a fault-injecting device:
// transient per-command EIOs are retried in place, the way a host
// storage stack reissues a failed command before involving anyone
// above it. Persistent errors surface immediately. It lets the engine
// conformance suite run over an EIO-injecting device without teaching
// the suite about retries — the same division of labour as the serving
// layer, where the store retries transient errors and fails replicas
// over on persistent ones.
type RetryDev struct {
	inner   *faultdev.Dev
	Retries int64 // transient errors absorbed
}

// NewRetryDev wraps a fault-injecting device.
func NewRetryDev(inner *faultdev.Dev) *RetryDev { return &RetryDev{inner: inner} }

// PageSize implements blockdev.Dev.
func (r *RetryDev) PageSize() int { return r.inner.PageSize() }

// Pages implements blockdev.Dev.
func (r *RetryDev) Pages() int64 { return r.inner.Pages() }

// ContentEnabled reports the wrapped device's content mode.
func (r *RetryDev) ContentEnabled() bool { return r.inner.ContentEnabled() }

// Discard implements blockdev.Dev.
func (r *RetryDev) Discard(off int64, n int) { r.inner.Discard(off, n) }

// retry drives one op until it succeeds, fails persistently, or the
// attempt bound runs out. A failed attempt charges no virtual time, so
// the successful attempt's completion time is the op's.
func (r *RetryDev) retry(op func() (sim.Duration, error)) (sim.Duration, error) {
	var (
		done sim.Duration
		err  error
	)
	for attempt := 0; attempt < retryAttempts; attempt++ {
		done, err = op()
		if err == nil || !deverr.IsTransient(err) {
			return done, err
		}
		r.Retries++
	}
	return done, fmt.Errorf("kvtest: transient error survived %d retries: %w", retryAttempts, err)
}

// WriteErr implements blockdev.Dev with transient retry.
func (r *RetryDev) WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	return r.retry(func() (sim.Duration, error) { return r.inner.WriteErr(now, off, n, data) })
}

// ReadErr implements blockdev.Dev with transient retry.
func (r *RetryDev) ReadErr(now sim.Duration, off int64, n int, buf []byte) (sim.Duration, error) {
	return r.retry(func() (sim.Duration, error) { return r.inner.ReadErr(now, off, n, buf) })
}

// WriteAt implements blockdev.Dev as a panic wrapper over WriteErr.
func (r *RetryDev) WriteAt(now sim.Duration, off int64, n int, data []byte) sim.Duration {
	done, err := r.WriteErr(now, off, n, data)
	if err != nil {
		panic(err)
	}
	return done
}

// ReadAt implements blockdev.Dev as a panic wrapper over ReadErr.
func (r *RetryDev) ReadAt(now sim.Duration, off int64, n int, buf []byte) sim.Duration {
	done, err := r.ReadErr(now, off, n, buf)
	if err != nil {
		panic(err)
	}
	return done
}

// SyncErr implements blockdev.Dev with transient retry.
func (r *RetryDev) SyncErr() error {
	_, err := r.retry(func() (sim.Duration, error) { return 0, r.inner.SyncErr() })
	return err
}

// FaultyStack is a Stack over an error-injecting device, exposing the
// injection and retry counters so tests can prove the plan actually
// fired.
type FaultyStack struct {
	Stack
	Fault *faultdev.Dev
	Retry *RetryDev
}

// NewFaultyStack opens a fresh engine of the given driver over a
// simulated flash device wrapped in a fault-injecting overlay running
// the given error plan, with a block-layer retry shim absorbing
// transient verdicts. Its Reopen power cycles the device first —
// faultdev folds the pending window intact when the plan has no
// drop/torn probabilities and disarms the error model — so recovery
// reads a clean, honest device, the way the crash harness recovers
// after its own power cycle.
func NewFaultyStack(t *testing.T, drv engine.Driver, tunables map[string]string, plan faultdev.Plan, content bool) *FaultyStack {
	t.Helper()
	st := &FaultyStack{}
	l := stack.Small(drv.Name(), tunables)
	l.Fault = &plan
	l.WrapDev = func(d blockdev.Dev) blockdev.Dev {
		st.Fault = d.(*faultdev.Dev)
		st.Retry = NewRetryDev(st.Fault)
		return st.Retry
	}
	st.Stack = *openStack(t, l, content)
	return st
}
