package wal

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ptsbench/internal/extfs"
	"ptsbench/internal/sim"
)

// Log is one engine's journal lifecycle: the segment names, minted as
// "<prefix>%06d" from one id counter; the active writer; the pool of
// recycled writers; recovery's replay; and the removal of replayed
// segments once their records are durable elsewhere. The LSM journals
// its memtable through one, the trees their updates.
type Log struct {
	// Writer is the active segment's writer, which appends go to
	// directly; nil before Start and when journaling is disabled.
	*Writer
	fs       *extfs.FS
	prefix   string
	content  bool
	disabled bool
	id       uint64    // the last id minted or found on disk
	pool     []*Writer // recycled writers, reused last-in first-out
	replayed []string  // segments Recover read, kept until Retire
}

// NewLog returns the journal whose segments are named prefix plus a
// six-digit id. content selects whether record bytes are written
// through (required for replay); disabled turns journaling off: the
// log then never creates a segment and its Writer stays nil.
func NewLog(fs *extfs.FS, prefix string, content, disabled bool) *Log {
	return &Log{fs: fs, prefix: prefix, content: content, disabled: disabled}
}

// ID returns the id of the newest segment name the log knows of; an
// engine records it beside its root so recovery mints past it.
func (l *Log) ID() uint64 { return l.id }

// Start opens the first active writer (nothing when journaling is
// disabled).
func (l *Log) Start() error {
	if l.disabled {
		return nil
	}
	w, err := l.next()
	if err != nil {
		return err
	}
	l.Writer = w
	return nil
}

// Rotate switches appends to the most recently recycled writer, or to a
// freshly minted segment when none waits, and hands back the previous
// active writer for the caller to Recycle once its records are durable
// elsewhere. With no active writer it does nothing and returns nil.
func (l *Log) Rotate() (*Writer, error) {
	old := l.Writer
	if old == nil {
		return nil, nil
	}
	w, err := l.next()
	if err != nil {
		return nil, err
	}
	l.Writer = w
	return old, nil
}

// next pops the most recently recycled writer or creates a segment
// under the next id.
func (l *Log) next() (*Writer, error) {
	if n := len(l.pool); n > 0 {
		w := l.pool[n-1]
		l.pool = l.pool[:n-1]
		return w, nil
	}
	l.id++
	return Create(l.fs, fmt.Sprintf("%s%06d", l.prefix, l.id), l.content)
}

// Recycle zeroes w's first page (see Writer.recycle) and pools it for
// the next Rotate, returning the write's completion time. A nil w — a
// rotation with journaling off — is a no-op.
func (l *Log) Recycle(now sim.Duration, w *Writer) (sim.Duration, error) {
	if w == nil {
		return now, nil
	}
	now, err := w.recycle(now)
	if err != nil {
		return now, err
	}
	l.pool = append(l.pool, w)
	return now, nil
}

// Recover replays every surviving segment and returns the records with
// a sequence number above floor, in sequence order (segments are
// recycled out of name order, so records are collected first and then
// sorted). id is the segment id the engine's root recorded; the log
// advances it past every surviving name, because a cut can land after a
// rotation created a segment but before a root recording its id became
// durable, and minting from the recorded id alone would collide with
// that survivor. The replayed names are kept for Retire.
func (l *Log) Recover(now sim.Duration, id, floor uint64) ([]Record, sim.Duration, error) {
	l.id = id
	l.replayed = l.replayed[:0]
	var records []Record
	for _, name := range l.fs.List() {
		if !strings.HasPrefix(name, l.prefix) {
			continue
		}
		if n, err := strconv.ParseUint(name[len(l.prefix):], 10, 64); err == nil && n > l.id {
			l.id = n
		}
		l.replayed = append(l.replayed, name)
		done, err := Replay(l.fs, name, now, func(r Record) {
			if r.Seq > floor {
				records = append(records, r)
			}
		})
		if err != nil {
			return nil, now, err
		}
		now = done
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Seq < records[j].Seq })
	return records, now, nil
}

// Retire removes the segments Recover replayed, except the active
// writer's and those waiting in the pool. The engine calls it once the
// replayed records are durable again, so a crash before then replays
// them a second time instead of losing them.
func (l *Log) Retire() error {
	for _, name := range l.replayed {
		if l.tracks(name) {
			continue
		}
		if err := l.fs.Remove(name); err != nil {
			return err
		}
	}
	l.replayed = nil
	return nil
}

// tracks reports whether name is the active writer's or a pooled one's.
func (l *Log) tracks(name string) bool {
	if l.Writer != nil && l.Writer.Name() == name {
		return true
	}
	for _, w := range l.pool {
		if w.Name() == name {
			return true
		}
	}
	return false
}
