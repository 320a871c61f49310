// Package stack is the one place a storage stack is put together:
// device → (partition) → (fault wrapper) → filesystem → engine, and
// shards × replicas of those behind a store. The paper's argument is
// that a tree-on-SSD number is only reproducible when everything under
// the tree — drive initial state, partition, mount options, engine
// sizing — is stated once and built the same way every time; here that
// statement is a Layout, composed only of the config types the layers
// already define, and Build is the only code that knows the order the
// layers go together in (which RNG draw comes first, where the fault
// wrapper sits, what an image file is called).
//
// The package resolves engines through the registry and never imports
// an implementation, so engine test packages can reach it through
// internal/kvtest.
package stack

import (
	"errors"
	"fmt"
	"os"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/engine"
	"ptsbench/internal/extfs"
	"ptsbench/internal/faultdev"
	"ptsbench/internal/filedev"
	"ptsbench/internal/flash"
	"ptsbench/internal/replica"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// preconditionPasses is the aging recipe of §3.4: a sequential fill
// plus this many capacities of uniform random overwrites.
const preconditionPasses = 2

// Layout describes one stack.
type Layout struct {
	// Flash is the simulated device, and the geometry of either
	// authority. Zero PageSize and PagesPerBlock take 4096 and 256.
	Flash flash.Config
	// File, when its Path is set, makes a real backing file the device
	// authority instead of the simulator. Zero Pages and PageSize take
	// Flash's geometry, so both authorities show the filesystem the same
	// capacity.
	File filedev.Config

	// PartitionPages, when positive and below the device size, mounts
	// the filesystem on the partition [0, PartitionPages); the tail is
	// never written (software over-provisioning). Simulator only.
	PartitionPages int64
	// Precondition ages the partition before the filesystem is made, on
	// a stream split off RNG first. Simulator only.
	Precondition bool

	// Fault, when non-nil, puts a fault-injecting wrapper running this
	// plan between the device and the filesystem. The wrapper is then
	// the content authority.
	Fault *faultdev.Plan
	// WrapDev, when non-nil, wraps the device the filesystem is about to
	// mount on (the fault wrapper, when there is one).
	WrapDev func(blockdev.Dev) blockdev.Dev
	// Mount are the filesystem's mount options.
	Mount extfs.Options

	// Engine is the registry name of the engine to open; empty builds
	// device and filesystem only.
	Engine   string
	Sizing   engine.Sizing
	Tunables map[string]string
	// RNG is the stack's random stream: the preconditioning stream is
	// split from it, then the engine opens on it.
	RNG *sim.RNG
	// Content materializes values. Without a fault wrapper the simulated
	// device then retains written bytes.
	Content bool
}

// Small is the correctness-scale layout the crash harness, the
// differential checker and the conformance fixtures share: a 32 MiB
// drive with 64-page erase blocks and an engine sized for half of it.
func Small(engineName string, tunables map[string]string) Layout {
	return Layout{
		Flash: flash.Config{
			LogicalBytes:  32 << 20,
			PagesPerBlock: 64,
			Profile:       flash.ProfileSSD1().Scaled(4096),
		},
		Engine:   engineName,
		Sizing:   engine.Sizing{DatasetBytes: 16 << 20},
		Tunables: tunables,
	}
}

// Stack is one built stack.
type Stack struct {
	// Host is the instrumented device, Sim or File.
	Host  blockdev.Host
	Sim   *blockdev.Device // nil on the file backend
	File  *filedev.Dev     // nil on the simulator
	Fault *faultdev.Dev    // nil without Layout.Fault
	FS    *extfs.FS
	// Engine is the engine Build opened (nil without Layout.Engine).
	// Recover does not replace it.
	Engine engine.Engine

	cfg engine.Config
}

// Build assembles the stack l describes. On failure nothing stays open.
func Build(l Layout) (*Stack, error) {
	s := &Stack{}
	target, err := s.openDevice(l)
	if err != nil {
		return nil, err
	}
	if l.Fault != nil {
		s.Fault = faultdev.Wrap(target, *l.Fault)
		target = s.Fault
	}
	if l.WrapDev != nil {
		target = l.WrapDev(target)
	}
	s.FS, err = extfs.Mount(target, l.Mount)
	if err == nil && l.Engine != "" {
		err = s.openEngine(l)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// openDevice builds the device authority and returns what the next
// layer mounts on: the device, or its partition.
func (s *Stack) openDevice(l Layout) (blockdev.Dev, error) {
	geo := l.Flash
	if geo.PageSize == 0 {
		geo.PageSize = 4096
	}
	if geo.PagesPerBlock == 0 {
		geo.PagesPerBlock = 256
	}
	pages := geo.LogicalBytes / int64(geo.PageSize)
	partition := l.PartitionPages > 0 && l.PartitionPages < pages

	if l.File.Path != "" {
		if partition || l.Precondition {
			return nil, errors.New("stack: partition and preconditioning need the simulated device")
		}
		cfg := l.File
		if cfg.Pages == 0 {
			cfg.Pages = pages
		}
		if cfg.PageSize == 0 {
			cfg.PageSize = geo.PageSize
		}
		fdev, err := filedev.Open(cfg)
		if err != nil {
			return nil, fmt.Errorf("building file device: %w", err)
		}
		s.Host, s.File = fdev, fdev
		return fdev, nil
	}

	ssd, err := flash.NewDevice(geo)
	if err != nil {
		return nil, fmt.Errorf("building device: %w", err)
	}
	s.Sim = blockdev.New(ssd)
	s.Host = s.Sim
	if l.Content && l.Fault == nil {
		s.Sim.EnableContentStore()
	}
	var target blockdev.Dev = s.Sim
	if partition {
		pages = l.PartitionPages
		if target, err = s.Sim.Partition(0, pages); err != nil {
			return nil, err
		}
	}
	// The device starts trimmed; preconditioning ages the partition.
	if l.Precondition {
		ssd.PreconditionRange(l.RNG.Split(), 0, pages, preconditionPasses)
	}
	return target, nil
}

func (s *Stack) openEngine(l Layout) error {
	drv, err := engine.Lookup(l.Engine)
	if err != nil {
		return err
	}
	s.cfg = drv.Configure(l.Sizing)
	if err := s.cfg.ApplyTunables(l.Tunables); err != nil {
		return err
	}
	s.Engine, err = s.cfg.Open(engine.Env{FS: s.FS, RNG: l.RNG, Content: l.Content})
	return err
}

// PowerCycle restarts the device under the mounted filesystem the way
// its authority restarts: a fault wrapper cuts power and resolves what
// survived (disarming its error model), a bare backing file is closed
// and reopened, the bare simulator keeps everything. The engine is gone
// afterwards; Recover brings one back.
func (s *Stack) PowerCycle() error {
	switch {
	case s.Fault != nil:
		s.Fault.PowerCut()
		_, err := s.Fault.PowerOn()
		return err
	case s.File != nil:
		if err := s.File.Close(); err != nil {
			return err
		}
		return s.File.Reopen()
	}
	return nil
}

// Recover reopens the stack's engine from its on-device state on a
// fresh random stream, returning the engine and the virtual time
// recovery I/O finished. The stack must have been built in content mode.
func (s *Stack) Recover(rng *sim.RNG, now sim.Duration) (engine.Engine, sim.Duration, error) {
	if s.cfg == nil {
		return nil, now, errors.New("stack: no engine to recover (built without Layout.Engine)")
	}
	return s.cfg.Recover(engine.Env{FS: s.FS, RNG: rng, Content: true}, now)
}

// Close releases the backing file, if there is one (the simulator holds
// nothing). The image stays on disk. Close is idempotent.
func (s *Stack) Close() error {
	if s.File == nil {
		return nil
	}
	return s.File.Close()
}

// Cluster is shards × replicas stacks behind one store.
type Cluster struct {
	Store *store.Store
	// Stacks is indexed [shard][replica].
	Stacks [][]*Stack
	// Groups holds each shard's replica group; nil when replicas == 1,
	// where the store serves the single stack's engine directly.
	Groups []*replica.Group
}

// BuildCluster builds layout(shard, rep) for every cell, shard-major
// and replica-minor, and serves them through one store. With more than
// one replica each shard is a replica group in the given mode, and
// autoFailover hands the serving layer authority to fail a persistently
// erroring replica out of it. On failure every stack already built is
// closed.
func BuildCluster(shards, replicas int, mode string, autoFailover bool, layout func(shard, rep int) Layout) (*Cluster, error) {
	c := &Cluster{Stacks: make([][]*Stack, shards)}
	var replMode replica.Mode
	if replicas > 1 {
		var err error
		if replMode, err = replica.ParseMode(mode); err != nil {
			return nil, err
		}
		c.Groups = make([]*replica.Group, shards)
	}
	var err error
	c.Store, err = store.New(shards, func(i int) (store.Stack, error) {
		members := make([]replica.Member, replicas)
		devs := make([]blockdev.Host, replicas)
		for r := range members {
			s, err := Build(layout(i, r))
			if err != nil {
				return store.Stack{}, err
			}
			c.Stacks[i] = append(c.Stacks[i], s)
			members[r] = replica.Member{Engine: s.Engine}
			devs[r] = s.Host
		}
		if replicas == 1 {
			return store.Stack{Engine: members[0].Engine, Dev: devs[0]}, nil
		}
		g, err := replica.New(replMode, members)
		if err != nil {
			return store.Stack{}, err
		}
		c.Groups[i] = g
		return store.Stack{Engine: g, Dev: devs[0], Devs: devs, AutoFailover: autoFailover}, nil
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close closes every stack (the store holds nothing to release). Close
// is idempotent.
func (c *Cluster) Close() error {
	var err error
	for _, row := range c.Stacks {
		for _, s := range row {
			err = errors.Join(err, s.Close())
		}
	}
	return err
}

// ImageName is the backing file of one stack of a cluster:
// shard-NNN.img, or shard-NNN-rR.img when shards are replicated.
func ImageName(shard, rep, replicas int) string {
	if replicas > 1 {
		return fmt.Sprintf("shard-%03d-r%d.img", shard, rep)
	}
	return fmt.Sprintf("shard-%03d.img", shard)
}

// ImageDir resolves where a run keeps its backing files: dir itself
// when the caller pinned one (images stay for inspection), otherwise a
// fresh temporary directory that cleanup removes.
func ImageDir(dir, tempPattern string) (path string, cleanup func(), err error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	tmp, err := os.MkdirTemp("", tempPattern)
	if err != nil {
		return "", nil, err
	}
	return tmp, func() { os.RemoveAll(tmp) }, nil
}
