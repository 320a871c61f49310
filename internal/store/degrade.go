package store

// Degraded-path policy: what a shard does when its engine returns an
// error instead of panicking. The taxonomy follows internal/deverr:
//
//   - TRANSIENT errors (a device EIO that may succeed on retry) are
//     retried on the shard's virtual clock under a capped exponential
//     backoff, bounded per op and per pump round, so an error burst
//     degrades throughput instead of failing acknowledged work.
//   - PERSISTENT errors attributed to one replica of a replica group
//     (replica.MemberError, matched structurally) fail that replica out
//     of the group — when the group can afford the loss — and the op
//     retries against the degraded group. Mutations are idempotent
//     last-writer-wins KV ops, so the re-apply is safe.
//   - Anything else latches the shard into UNAVAILABLE mode: the op and
//     every later one complete with a typed *Unavailable error until
//     the caller repairs the stack and calls ClearFailure. Loud refusal
//     beats silently serving a shard whose engine is known-broken.
//
// All of it is deterministic: backoff delays are fixed virtual-time
// constants, retry budgets are plain counters, and no wall clock or
// extra randomness is consulted.

import (
	"errors"
	"fmt"

	"ptsbench/internal/deverr"
	"ptsbench/internal/sim"
)

// Retry policy constants (virtual time).
const (
	// retryBase is the first backoff delay after a transient error.
	retryBase = sim.Duration(100_000) // 100µs
	// retryCap bounds the exponential backoff.
	retryCap = sim.Duration(3_200_000) // 3.2ms
	// retryAttempts bounds retries per operation.
	retryAttempts = 6
	// retryBudget bounds retries per shard per pump round, so a storm
	// of transient errors cannot stall a batch unboundedly.
	retryBudget = 64
)

// Unavailable is the sticky typed error a shard serves once its engine
// has failed persistently and no failover could absorb it. Callers
// detect it with IsUnavailable (or errors.As) and reach the root cause
// through Unwrap.
type Unavailable struct {
	Shard int
	Cause error
}

// Error implements error.
func (u *Unavailable) Error() string {
	return fmt.Sprintf("store: shard %d unavailable: %v", u.Shard, u.Cause)
}

// Unwrap exposes the latching failure.
func (u *Unavailable) Unwrap() error { return u.Cause }

// IsUnavailable reports whether err (or anything it wraps) marks a
// shard in unavailable mode.
func IsUnavailable(err error) bool {
	var u *Unavailable
	return errors.As(err, &u)
}

// ErrorStats counts the serving layer's degraded-path events, summed
// over shards by (*Store).ErrorStats.
type ErrorStats struct {
	Transient   int64 // transient engine/device errors observed
	Persistent  int64 // persistent errors observed
	Retries     int64 // op retries issued after transient errors
	Failovers   int64 // replicas auto-failed out of their groups
	Unavailable int64 // ops refused because the shard was unavailable
}

// Add returns a+b field-wise.
func (a ErrorStats) Add(b ErrorStats) ErrorStats {
	a.Transient += b.Transient
	a.Persistent += b.Persistent
	a.Retries += b.Retries
	a.Failovers += b.Failovers
	a.Unavailable += b.Unavailable
	return a
}

// ErrorStats aggregates degraded-path counters over shards. Like the
// other aggregators it must only be called between Pump rounds.
func (s *Store) ErrorStats() ErrorStats {
	var t ErrorStats
	for _, sh := range s.shards {
		t = t.Add(sh.errStats)
	}
	return t
}

// Failover is the optional engine surface behind automatic replica
// failover (replica.Group implements it). Live and MinLive bound the
// decision: a replica is only killed while the group stays serviceable
// without it.
type Failover interface {
	Kill(i int) error
	Live() int
	MinLive() int
}

// failOver tries to fail the replica named by a persistent
// member-attributed error out of the shard's group, reporting whether
// the op is worth retrying on the degraded group.
func (sh *shard) failOver(err error) bool {
	if !sh.autoFailover || deverr.IsTransient(err) {
		return false
	}
	var me interface{ MemberIndex() int }
	if !errors.As(err, &me) {
		return false
	}
	fo, ok := sh.eng.(Failover)
	if !ok || fo.Live() <= fo.MinLive() {
		return false
	}
	if fo.Kill(me.MemberIndex()) != nil {
		return false
	}
	sh.errStats.Failovers++
	return true
}

// redo drives one failed operation through the retry/failover policy.
// done/err are the first attempt's results; the returned values replace
// them. Backoff delays accrue on the shard's virtual clock via the
// retried op's start time.
func (sh *shard) redo(r request, done sim.Duration, err error) (sim.Duration, []byte, bool, error) {
	backoff := retryBase
	attempts := 0
	for {
		var v []byte
		var found bool
		if deverr.IsTransient(err) {
			sh.errStats.Transient++
			if attempts >= retryAttempts || sh.retryLeft <= 0 {
				return done, nil, false, err
			}
			attempts++
			sh.retryLeft--
			sh.errStats.Retries++
			at := max(done, sh.clock) + backoff
			if backoff < retryCap {
				backoff *= 2
			}
			done, v, found, err = sh.runOp(r, at)
		} else {
			sh.errStats.Persistent++
			if !sh.failOver(err) {
				return done, nil, false, err
			}
			done, v, found, err = sh.runOp(r, max(done, sh.clock))
		}
		if err == nil {
			return done, v, found, nil
		}
	}
}

// fail classifies an operation's terminal error: transient errors pass
// through and the shard keeps serving; anything persistent latches the
// shard into unavailable mode, so every later operation completes with
// the same typed error until ClearFailure.
func (sh *shard) fail(err error) error {
	if deverr.IsTransient(err) {
		return err
	}
	if sh.failed == nil {
		sh.failed = &Unavailable{Shard: sh.idx, Cause: err}
	}
	return sh.failed
}
