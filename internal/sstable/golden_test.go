package sstable

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptsbench/internal/kv"
)

// The side-index golden fixture pins what a table reads back as, however
// its side index is stored: for every case below, each table built
// through Add, appended through AppendTableRange (drop on and off, whole
// and cut by limitBytes) and, in content mode, reopened from its file,
// records a digest of every entry (key, seq, value length, tombstone,
// value bytes, block) with its logical size, file pages and image bytes.
//
// Regenerate (only when a deliberate change to the table format is made):
//
//	go test ./internal/sstable -run TestSideIndexGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_side_index.txt")

// goldenCase is one table's entries, shaped by how they depart from a
// uniform table of one value length and no tombstones.
type goldenCase struct {
	name string
	vlen func(i int) int  // value length of entry i
	del  func(i int) bool // entry i is a tombstone
}

const goldenEntries = 400

func goldenCases() []goldenCase {
	oneLen := func(int) int { return 300 }
	vary := func(i int) int { return 20 + (i*37)%500 }
	none := func(int) bool { return false }
	at := func(k int) func(int) bool { return func(i int) bool { return i == k } }
	return []goldenCase{
		{"uniform", oneLen, none},
		{"tomb-first", oneLen, at(0)},
		{"tomb-mid", oneLen, at(goldenEntries / 2)},
		{"tomb-last", oneLen, at(goldenEntries - 1)},
		{"vlen-vary", vary, none},
		{"key16-shapes", vary, func(i int) bool { return i%11 == 3 }},
	}
}

// entries builds c's entries: id i*2+1's key (the id in the first word,
// zeros after it), a tombstone carrying no value.
func (c goldenCase) entries(content bool) []kv.Entry {
	out := make([]kv.Entry, goldenEntries)
	for i := range out {
		id := uint64(i*2 + 1)
		k := binary.BigEndian.AppendUint64(make([]byte, 0, 24), id)
		k = append(k, make([]byte, kv.KeySize-8)...)
		e := kv.Entry{Key: k, ValueLen: c.vlen(i), Seq: 100 + uint64(i)*3}
		if c.del(i) {
			e.ValueLen, e.Deleted = 0, true
		} else if content {
			e.Value = make([]byte, e.ValueLen)
			kv.SynthValue(e.Value, e.Key, e.Seq)
		}
		out[i] = e
	}
	return out
}

// goldenLine digests table t and its image bytes.
func goldenLine(name string, t *Table, image []byte) string {
	h := sha256.New()
	var buf []byte
	for i := 0; i < t.NumEntries(); i++ {
		e := t.entryAt(i)
		buf = binary.LittleEndian.AppendUint16(buf[:0], uint16(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.ValueLen))
		if e.Deleted {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Value)))
		buf = append(buf, e.Value...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(t.blockOf(i)))
		h.Write(buf)
	}
	img := sha256.Sum256(image)
	return fmt.Sprintf("%s entries=%d size=%d pages=%d entries_sha=%x image_sha=%x",
		name, t.NumEntries(), t.SizeBytes(), t.FilePages(), h.Sum(nil)[:12], img[:12])
}

// TestSideIndexGolden checks every case's tables against
// testdata/golden_side_index.txt.
func TestSideIndexGolden(t *testing.T) {
	var lines []string
	for _, content := range []bool{false, true} {
		fs, _ := newTestFS(t, content)
		for _, c := range goldenCases() {
			prefix := fmt.Sprintf("%s/content=%v", c.name, content)
			entries := c.entries(content)
			b := NewBuilder(4096, 4<<10, content, 0, new(Spares))
			for i := range entries {
				if err := b.Add(&entries[i]); err != nil {
					t.Fatal(err)
				}
			}
			img := b.Finish(3)
			lines = append(lines, goldenLine(prefix+"/add", img.table, img.Data))
			src := installImage(t, fs, "sst-"+strings.ReplaceAll(prefix, "/", "-"), img)

			// Bulk appends of the source: whole in three ranges, then cut
			// by a limit into tables the way a compaction rolls its
			// output, each table's walk resuming where the last stopped.
			for _, drop := range []bool{false, true} {
				b := NewBuilder(4096, 4<<10, content, 0, new(Spares))
				for _, r := range [][2]int{{0, 1}, {1, goldenEntries / 3}, {goldenEntries / 3, goldenEntries}} {
					if _, err := b.AppendTableRange(src, r[0], r[1], drop, 1<<62); err != nil {
						t.Fatal(err)
					}
				}
				img := b.Finish(4)
				lines = append(lines, goldenLine(fmt.Sprintf("%s/append-drop=%v", prefix, drop), img.table, img.Data))
				for part, next := 0, 0; next < goldenEntries; part++ {
					b := NewBuilder(4096, 4<<10, content, 0, new(Spares))
					var err error
					if next, err = b.AppendTableRange(src, next, goldenEntries, drop, 30<<10); err != nil {
						t.Fatal(err)
					}
					img := b.Finish(uint64(5 + part))
					lines = append(lines, goldenLine(fmt.Sprintf("%s/append-drop=%v-cut%d", prefix, drop, part), img.table, img.Data))
				}
			}

			if content {
				f, err := fs.Open(src.FileName())
				if err != nil {
					t.Fatal(err)
				}
				opened, _, err := OpenFromFile(f, fs.PageSize(), 0)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, goldenLine(prefix+"/open", opened, img.Data))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "golden_side_index.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d tables)", path, len(lines))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("fixture holds %d tables, built %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("table diverges from %s:\ngot:  %s\nwant: %s", path, lines[i], wantLines[i])
		}
	}
}
