// Package sim provides the discrete-event simulation primitives used by
// every other layer of ptsbench: virtual time, a FIFO device resource
// with a configurable service-time model and its multi-lane form,
// background worker actors, and a deterministic random number generator.
//
// The simulation model is deliberately simple ("DES-lite"): there is no
// clock object. A single foreground actor (the benchmark's user thread)
// threads virtual time through every call — an operation takes the
// current time and returns its completion time — and background actors
// (flush, compaction, checkpoint, destage workers) are pumped up to the
// foreground time before each foreground operation. All actors contend
// for the same FIFO device resource, so background bursts delay
// foreground I/O exactly as they do on real hardware.
package sim

import "time"

// Duration is virtual time expressed in nanoseconds. It is kept distinct
// from time.Duration in signatures that mix virtual and wall-clock time,
// but converts freely.
type Duration = time.Duration
