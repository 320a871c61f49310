package stack_test

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/deverr"
	_ "ptsbench/internal/engine/all"
	"ptsbench/internal/faultdev"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
)

// small is the shared correctness-scale layout in content mode, over
// the simulator (path == "") or a backing file.
func small(path string) stack.Layout {
	l := stack.Small("btree", map[string]string{"journal_sync": "true"})
	l.Content = true
	l.RNG = sim.NewRNG(1)
	l.File.Path = path
	return l
}

// TestBuildRecoverClose: both authorities build from the same layout, a
// put survives a power cycle plus Recover, and Close is idempotent.
func TestBuildRecoverClose(t *testing.T) {
	for name, path := range map[string]string{"sim": "", "file": filepath.Join(t.TempDir(), "dev.img")} {
		t.Run(name, func(t *testing.T) {
			st, err := stack.Build(small(path))
			if err != nil {
				t.Fatal(err)
			}
			if (st.File != nil) != (path != "") || (st.Sim != nil) == (path != "") {
				t.Fatalf("wrong authority built: Sim %v, File %v", st.Sim != nil, st.File != nil)
			}
			if st.Host.Pages() != 8192 || st.Host.PageSize() != 4096 {
				t.Fatalf("geometry %d x %d, want 8192 x 4096", st.Host.Pages(), st.Host.PageSize())
			}
			now, err := st.Engine.Put(0, kv.EncodeKey(7), []byte("seven"), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PowerCycle(); err != nil {
				t.Fatal(err)
			}
			eng, now, err := st.Recover(sim.NewRNG(2), now)
			if err != nil {
				t.Fatal(err)
			}
			_, v, found, err := eng.Get(now, kv.EncodeKey(7))
			if err != nil || !found || !bytes.Equal(v, []byte("seven")) {
				t.Fatalf("recovered get: %q found=%v err=%v", v, found, err)
			}
			for i := 0; i < 2; i++ {
				if err := st.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
		})
	}
}

// TestBuildRejects: layouts the simulator-only knobs make meaningless,
// and engine errors, fail without leaving a file open.
func TestBuildRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	aged := small(path)
	aged.Precondition = true
	unknown := small(path)
	unknown.Engine = "nope"
	typo := small(path)
	typo.Tunables = map[string]string{"no_such_knob": "1"}
	for name, l := range map[string]stack.Layout{"precondition on file": aged, "unknown engine": unknown, "bad tunable": typo} {
		if st, err := stack.Build(l); err == nil {
			st.Close()
			t.Errorf("%s: Build succeeded", name)
		}
	}
}

// boundsShapes are the four device shapes Build can mount a filesystem
// on, each showing the filesystem Small's geometry: the partition is
// the first half of a device twice that size.
func boundsShapes(t testing.TB) []struct {
	name string
	edit func(*stack.Layout)
} {
	return []struct {
		name string
		edit func(*stack.Layout)
	}{
		{"sim", func(*stack.Layout) {}},
		{"sim+partition", func(l *stack.Layout) {
			l.PartitionPages = l.Flash.LogicalBytes / 4096
			l.Flash.LogicalBytes *= 2
		}},
		{"sim+fault", func(l *stack.Layout) { l.Fault = &faultdev.Plan{} }},
		{"file", func(l *stack.Layout) { l.File.Path = filepath.Join(t.TempDir(), "dev.img") }},
	}
}

// TestDevicesReportBounds: every device Build can mount a filesystem on
// holds the one bounds rule. An empty request returns at once; a write
// past its end, a short write or read buffer and a read past its end
// are typed bounds errors, not panics, that move no clock and count
// nothing; an in-range discard is counted once. A partition shows the
// filesystem its own size while the write histogram spans the device.
func TestDevicesReportBounds(t *testing.T) {
	const now = time.Second
	for _, tc := range boundsShapes(t) {
		t.Run(tc.name, func(t *testing.T) {
			l := stack.Small("", nil)
			tc.edit(&l)
			st, err := stack.Build(l)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			dev := st.FS.Device()
			ps := dev.PageSize()
			before := st.Host.Counters()

			for what, io := range map[string]func(sim.Duration, int64, int, []byte) (sim.Duration, error){
				"write": dev.WriteErr, "read": dev.ReadErr,
			} {
				if done, err := io(now, 0, 0, nil); err != nil || done != now {
					t.Errorf("empty %s: (%v, %v), want (%v, nil)", what, done, err, now)
				}
			}
			dev.Discard(0, 0)
			if c := st.Host.Counters(); c != before {
				t.Errorf("empty requests were counted: %+v, was %+v", c, before)
			}

			refused := []struct {
				what string
				io   func(sim.Duration, int64, int, []byte) (sim.Duration, error)
				off  int64
				n    int
				buf  []byte
			}{
				{"write past the end", dev.WriteErr, dev.Pages(), 1, nil},
				{"short write buffer", dev.WriteErr, 0, 2, make([]byte, ps)},
				{"short read buffer", dev.ReadErr, 0, 2, make([]byte, ps)},
				{"read past the end", dev.ReadErr, dev.Pages() - 1, 2, nil},
			}
			for _, r := range refused {
				done, err := r.io(now, r.off, r.n, r.buf)
				if de, ok := deverr.As(err); !ok || de.Kind != deverr.KindBounds {
					t.Errorf("%s: got %v, want a %s error", r.what, err, deverr.KindBounds)
				}
				if done != now {
					t.Errorf("%s: a refused request moved the clock to %v", r.what, done)
				}
			}
			if c := st.Host.Counters(); c != before {
				t.Errorf("refused requests were counted: %+v, was %+v", c, before)
			}

			dev.Discard(dev.Pages()-3, 3)
			want := before
			want.DiscardOps++
			want.PagesDiscarded += 3
			if c := st.Host.Counters(); c != want {
				t.Errorf("after a 3-page discard: %+v, want %+v", c, want)
			}

			if l.PartitionPages > 0 {
				if got := dev.Pages(); got != l.PartitionPages {
					t.Errorf("filesystem sees %d pages, want the partition's %d", got, l.PartitionPages)
				}
				st.Host.KeepWriteHist()
				if got, want := int64(len(st.Host.WriteHist())), l.Flash.LogicalBytes/int64(ps); got != want {
					t.Errorf("write histogram spans %d pages, want the whole device's %d", got, want)
				}
			}
		})
	}
}

// maxBoundsRequests bounds the requests FuzzDeviceBounds decodes from
// one input.
const maxBoundsRequests = 64

// FuzzDeviceBounds decodes its input into requests, five bytes each: the
// kind (low two bits mod 3: write, read, discard; bit 2 counts the
// offset back from the device end), a signed 16-bit offset, a signed
// page count mod 64, and the buffer (0 is nil, otherwise n-1, n or n+1
// pages by the low bits, with a stray byte when the top bit is set). It
// runs them against the four device shapes of boundsShapes, which show
// the filesystem equal geometry. Every outcome must be the bounds rule's
// verdict recomputed here, on every shape (a refused discard, which has
// no error channel, panics with the bounds error), and afterwards the
// sim and file shapes must hold equal counters and write histograms, as
// devdiff requires of the two authorities.
func FuzzDeviceBounds(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 2, 1, 0, 0, 4, 0, 2, 0, 0, 4, 0})
	// Writes and reads straddling the end, a short and a long buffer, a
	// negative offset and page count, a discard past the end.
	f.Add([]byte{4, 1, 0, 2, 2, 5, 1, 0, 1, 1, 0, 8, 0, 3, 0, 0, 8, 0, 3, 2,
		1, 0xff, 0xff, 1, 0, 0, 0, 0, 0xff, 0, 6, 0, 0, 1, 0, 0, 0x10, 0, 9, 0x82})
	f.Fuzz(func(t *testing.T, in []byte) {
		shapes := boundsShapes(t)
		devs := make([]blockdev.Dev, len(shapes))
		hosts := make([]blockdev.Host, len(shapes))
		for i, sh := range shapes {
			l := stack.Small("", nil)
			sh.edit(&l)
			st, err := stack.Build(l)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			st.Host.KeepWriteHist()
			devs[i], hosts[i] = st.FS.Device(), st.Host
		}
		pages, ps := devs[0].Pages(), devs[0].PageSize()
		for i, d := range devs {
			if d.Pages() != pages || d.PageSize() != ps {
				t.Fatalf("%s: %d pages of %d bytes, want %d of %d", shapes[i].name, d.Pages(), d.PageSize(), pages, ps)
			}
		}

		in = in[:min(len(in), 5*maxBoundsRequests)]
		for req := 0; len(in) >= 5; req, in = req+1, in[5:] {
			kind := in[0] % 4 % 3
			off := int64(int16(binary.LittleEndian.Uint16(in[1:])))
			if in[0]&4 != 0 {
				off = pages - off
			}
			n := int(int8(in[3])) % 64
			var buf []byte
			if in[4] != 0 && kind != 2 {
				buf = make([]byte, max(0, n+int(in[4]%3)-1)*ps+int(in[4]>>7))
			}
			refused := n > 0 && (off < 0 || off+int64(n) > pages || (buf != nil && len(buf) != n*ps))
			now := sim.Duration(req) * time.Millisecond
			for i, d := range devs {
				var err error
				switch kind {
				case 0:
					_, err = d.WriteErr(now, off, n, buf)
				case 1:
					_, err = d.ReadErr(now, off, n, buf)
				default:
					err = discardErr(d, off, n)
				}
				if de, ok := deverr.As(err); refused && (!ok || de.Kind != deverr.KindBounds) || !refused && err != nil {
					t.Fatalf("request %d (kind %d, [%d,+%d), %d-byte buffer) on %s: got %v, refused=%v",
						req, kind, off, n, len(buf), shapes[i].name, err, refused)
				}
			}
		}

		simHost, fileHost := hosts[0], hosts[3]
		if simHost.Counters() != fileHost.Counters() {
			t.Fatalf("counters differ: sim %+v, file %+v", simHost.Counters(), fileHost.Counters())
		}
		if len(simHost.WriteHist()) == 0 || !slices.Equal(simHost.WriteHist(), fileHost.WriteHist()) {
			t.Fatal("write histograms are empty or differ between the sim and file shapes")
		}
	})
}

// discardErr issues a discard and returns the bounds error a refused
// one panics with.
func discardErr(d blockdev.Dev, off int64, n int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok {
				panic(r)
			}
			err = e
		}
	}()
	d.Discard(off, n)
	return nil
}

// TestClusterFailureClosesBuiltStacks: when shard k fails to build, the
// file devices of shards 0..k-1 are closed, not leaked. The device-wrap
// hook is how the test gets hold of them; a closed device refuses I/O.
func TestClusterFailureClosesBuiltStacks(t *testing.T) {
	dir := t.TempDir()
	var devs []blockdev.Dev
	_, err := stack.BuildCluster(3, 1, "", false, func(i, r int) stack.Layout {
		l := small(filepath.Join(dir, stack.ImageName(i, r, 1)))
		l.WrapDev = func(d blockdev.Dev) blockdev.Dev {
			devs = append(devs, d)
			return d
		}
		if i == 2 {
			l.Engine = "nope"
		}
		return l
	})
	if err == nil {
		t.Fatal("cluster with an unknown engine on shard 2 built")
	}
	if len(devs) != 3 {
		t.Fatalf("%d devices opened, want 3", len(devs))
	}
	for i, d := range devs {
		if _, err := d.WriteErr(0, 0, 1, nil); err == nil {
			t.Errorf("shard %d's backing file is still open after the failed build", i)
		}
	}
}
