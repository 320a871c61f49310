package kvtest

import (
	"bytes"
	"sort"
)

// Model is the engine-independent reference state a harness checks a
// store against. In the fault-free case every key's state is known
// exactly (Put/Delete). After a power cut, operations that were in
// flight when power died may or may not have survived, so a key can
// carry an ordered set of allowed states instead (AllowPut /
// AllowDelete): the recovered engine must present one of them. The
// candidate order mirrors submission order — under prefix-replay
// journaling the survivor is always some prefix of the in-flight
// sequence, so every intermediate state is a legal outcome.
type Model struct {
	entries map[uint64][]candidate
}

type candidate struct {
	val    []byte
	absent bool
}

// NewModel returns an empty reference model (every key absent).
func NewModel() *Model {
	return &Model{entries: make(map[uint64][]candidate)}
}

func cloneVal(v []byte) []byte {
	if v == nil {
		return []byte{}
	}
	return append([]byte(nil), v...)
}

// Put records that the key now holds exactly v.
func (m *Model) Put(id uint64, v []byte) {
	m.entries[id] = append(m.entries[id][:0], candidate{val: cloneVal(v)})
}

// Delete records that the key is now definitely absent.
func (m *Model) Delete(id uint64) {
	m.entries[id] = append(m.entries[id][:0], candidate{absent: true})
}

// AllowPut adds "the key holds v" to the key's allowed states (an
// acknowledged-but-maybe-lost write in the cut window).
func (m *Model) AllowPut(id uint64, v []byte) {
	m.ensure(id)
	m.entries[id] = append(m.entries[id], candidate{val: cloneVal(v)})
}

// AllowDelete adds "the key is absent" to the key's allowed states.
func (m *Model) AllowDelete(id uint64) {
	m.ensure(id)
	m.entries[id] = append(m.entries[id], candidate{absent: true})
}

// ensure seeds an untouched key's state (absent) so ambiguous ops
// extend a well-defined base.
func (m *Model) ensure(id uint64) {
	if _, ok := m.entries[id]; !ok {
		m.entries[id] = []candidate{{absent: true}}
	}
}

// IDs returns every tracked key id in ascending order.
func (m *Model) IDs() []uint64 {
	ids := make([]uint64, 0, len(m.entries))
	for id := range m.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Ambiguous reports whether the key has more than one allowed state.
func (m *Model) Ambiguous(id uint64) bool { return len(m.entries[id]) > 1 }

// MustContain reports whether the key is present in every allowed
// state — a scan of the recovered engine must surface it.
func (m *Model) MustContain(id uint64) bool {
	cands, ok := m.entries[id]
	if !ok {
		return false
	}
	for _, c := range cands {
		if c.absent {
			return false
		}
	}
	return true
}

// MayContain reports whether the key is present in at least one allowed
// state — the only keys a scan is permitted to surface.
func (m *Model) MayContain(id uint64) bool {
	for _, c := range m.entries[id] {
		if !c.absent {
			return true
		}
	}
	return false
}

// Value returns the key's exact value. ok is false when the key is
// absent or ambiguous.
func (m *Model) Value(id uint64) (v []byte, ok bool) {
	cands := m.entries[id]
	if len(cands) != 1 || cands[0].absent {
		return nil, false
	}
	return cands[0].val, true
}

// Check verifies one observed Get result against the key's allowed
// states, reporting whether some state matches.
func (m *Model) Check(id uint64, val []byte, found bool) bool {
	cands, ok := m.entries[id]
	if !ok {
		return !found
	}
	for _, c := range cands {
		if c.absent {
			if !found {
				return true
			}
			continue
		}
		if found && bytes.Equal(c.val, val) {
			return true
		}
	}
	return false
}

// CheckValue verifies an observed present value (a scan entry) against
// the key's allowed present states.
func (m *Model) CheckValue(id uint64, val []byte) bool {
	for _, c := range m.entries[id] {
		if !c.absent && bytes.Equal(c.val, val) {
			return true
		}
	}
	return false
}
