package stack_test

import (
	"bytes"
	"path/filepath"
	"testing"

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

// TestDevicesReportBounds: every device Build can mount a filesystem on
// answers a write past its end and a read into a short buffer with a
// typed bounds error, not a panic.
func TestDevicesReportBounds(t *testing.T) {
	cases := []struct {
		name string
		edit func(*stack.Layout)
	}{
		{"sim", func(*stack.Layout) {}},
		{"sim+partition", func(l *stack.Layout) { l.PartitionPages = 4096 }},
		{"sim+fault", func(l *stack.Layout) { l.Fault = &faultdev.Plan{} }},
		{"file", func(l *stack.Layout) { l.File.Path = filepath.Join(t.TempDir(), "dev.img") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := stack.Small("", nil)
			tc.edit(&l)
			st, err := stack.Build(l)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			dev := st.FS.Device()
			_, werr := dev.WriteErr(0, dev.Pages(), 1, nil)
			_, rerr := dev.ReadErr(0, 0, 2, make([]byte, dev.PageSize()))
			for what, err := range map[string]error{"write past the end": werr, "short read buffer": rerr} {
				if de, ok := deverr.As(err); !ok || de.Kind != deverr.KindBounds {
					t.Errorf("%s: got %v, want a %s error", what, err, deverr.KindBounds)
				}
			}
		})
	}
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
