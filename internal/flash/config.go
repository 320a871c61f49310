// Package flash simulates a flash SSD at the flash-translation-layer
// level: a page-mapped FTL with log-structured writes, greedy garbage
// collection, hardware over-provisioning, TRIM, an optional write-back
// cache with background destaging, and a latency/bandwidth service-time
// model. The simulator exposes SMART-style counters so that callers can
// measure device-level write amplification (WA-D) exactly the way the
// paper does (§3.3, metric iv).
//
// The FTL mechanics are the standard model used by the SSD-performance
// literature the paper builds on (Desnoyers; Hu et al.; Stoica &
// Ailamaki): WA-D emerges from utilization, over-provisioning and the
// spatial distribution of invalidations, rather than being scripted.
package flash

import (
	"fmt"
	"time"
)

// Profile describes the performance envelope and internal organization of
// an SSD model. The three stock profiles correspond to the paper's SSD1
// (enterprise flash, Intel p3600-like), SSD2 (consumer QLC with a large
// write cache, Intel 660p-like) and SSD3 (3DXP/Optane-like, no GC).
type Profile struct {
	Name string

	// Host-visible service-time model. A request of n pages costs
	// Fixed + n*PageSize/BW on the device's FIFO resource.
	ReadFixed  time.Duration
	WriteFixed time.Duration
	ReadBW     int64 // bytes/second
	WriteBW    int64 // bytes/second

	// Internal flash timings, used for GC relocations, erases and cache
	// destaging. For cacheless drives InternalWriteBW usually equals
	// WriteBW.
	InternalReadBW  int64
	InternalWriteBW int64
	EraseTime       time.Duration // per block

	// HardwareOP is the hidden extra capacity: physical bytes =
	// logical bytes * (1 + HardwareOP).
	HardwareOP float64

	// CacheBytes, when non-zero, enables a write-back cache that absorbs
	// host writes at CacheWriteBW/CacheWriteFixed speed and destages to
	// flash at InternalWriteBW in the background.
	CacheBytes      int64
	CacheWriteBW    int64
	CacheWriteFixed time.Duration

	// NoGC marks media with in-place update capability (3DXP-like):
	// the FTL is bypassed and WA-D is identically 1.
	NoGC bool

	// Channels and Ways describe the device's internal parallelism: the
	// flash array is organized as Channels independent buses, each with
	// Ways dies, giving Channels × Ways concurrent service lanes.
	// Logical pages stripe round-robin over the lanes, and each lane
	// serves its pages at 1/(Channels × Ways) of the device bandwidths
	// above — so a single large request or many overlapping small ones
	// reach full device bandwidth, while one small request at queue
	// depth 1 occupies a single die, exactly the behaviour Roh et al.
	// exploit ("B+-tree Index Optimization by Exploiting Internal
	// Parallelism of Flash-based SSDs"). Zero values default to 1
	// (a single serial lane: the classic FIFO device model, and the
	// behaviour of every stock profile unless overridden).
	Channels int
	Ways     int
}

// WithParallelism returns a copy of the profile with the given internal
// geometry (channels × ways service lanes).
func (p Profile) WithParallelism(channels, ways int) Profile {
	p.Channels = channels
	p.Ways = ways
	return p
}

// ParallelLanes returns the number of internal service lanes
// (channels × ways, minimum 1).
func (p Profile) ParallelLanes() int {
	c, w := p.Channels, p.Ways
	if c < 1 {
		c = 1
	}
	if w < 1 {
		w = 1
	}
	return c * w
}

// Scaled returns a copy of the profile with every bandwidth and the cache
// size divided by f and every fixed per-request latency multiplied by f.
// This dilates every per-operation service time by exactly f, so a scaled
// experiment traces the same virtual-time curves as the full-size one
// with 1/f of the operations.
//
// EraseTime deliberately does NOT scale: the experiment runner shrinks
// the erase-block size together with capacity, so a scaled workload
// performs the same NUMBER of erases as the full-size one — each must
// therefore keep its full-size duration for total GC time to be
// preserved. The OP fraction is dimensionless and unchanged.
func (p Profile) Scaled(f int64) Profile {
	if f <= 1 {
		return p
	}
	q := p
	q.ReadBW /= f
	q.WriteBW /= f
	q.InternalReadBW /= f
	q.InternalWriteBW /= f
	q.CacheBytes /= f
	if q.CacheWriteBW != 0 {
		q.CacheWriteBW /= f
	}
	q.ReadFixed *= time.Duration(f)
	q.WriteFixed *= time.Duration(f)
	q.CacheWriteFixed *= time.Duration(f)
	return q
}

// ProfileSSD1 models an enterprise datacenter flash SSD (Intel DC
// p3600-class): strong sustained write bandwidth, moderate latency, a
// generous hardware over-provisioning, and no oversized write cache.
func ProfileSSD1() Profile {
	return Profile{
		Name:            "SSD1-enterprise-flash",
		ReadFixed:       90 * time.Microsecond,
		WriteFixed:      25 * time.Microsecond,
		ReadBW:          2200 << 20, // 2.2 GiB/s
		WriteBW:         550 << 20,  // 550 MiB/s sustained
		InternalReadBW:  2200 << 20,
		InternalWriteBW: 550 << 20,
		EraseTime:       2 * time.Millisecond,
		HardwareOP:      0.25,
	}
}

// ProfileSSD2 models a consumer QLC SSD (Intel 660p-class): a large
// SLC-mode write cache that absorbs bursts at high speed, with a slow QLC
// backend. Small steady writes are served from the cache; large bursts
// overwhelm it and are throttled to the QLC destage rate — the behaviour
// behind the paper's Fig 9/10 observations.
func ProfileSSD2() Profile {
	return Profile{
		Name:            "SSD2-consumer-QLC",
		ReadFixed:       90 * time.Microsecond,
		WriteFixed:      20 * time.Microsecond,
		ReadBW:          1800 << 20,
		WriteBW:         1500 << 20, // into cache
		InternalReadBW:  1800 << 20,
		InternalWriteBW: 100 << 20, // QLC program rate
		EraseTime:       3 * time.Millisecond,
		HardwareOP:      0.07,
		CacheBytes:      24 << 30, // SLC cache
		CacheWriteBW:    1500 << 20,
		CacheWriteFixed: 15 * time.Microsecond,
	}
}

// ProfileSSD3 models a 3D XPoint (Optane-class) SSD: very low latency,
// high bandwidth, in-place updates, no garbage collection, WA-D == 1.
func ProfileSSD3() Profile {
	return Profile{
		Name:            "SSD3-optane",
		ReadFixed:       10 * time.Microsecond,
		WriteFixed:      10 * time.Microsecond,
		ReadBW:          2400 << 20,
		WriteBW:         2000 << 20,
		InternalReadBW:  2400 << 20,
		InternalWriteBW: 2000 << 20,
		EraseTime:       0,
		HardwareOP:      0.02,
		NoGC:            true,
	}
}

// Config fully determines a simulated device.
type Config struct {
	// LogicalBytes is the capacity advertised to the host.
	LogicalBytes int64
	// PageSize is the flash page (and host sector) size in bytes.
	PageSize int
	// PagesPerBlock is the erase-block size in pages.
	PagesPerBlock int

	// Streams is the number of concurrently open host write blocks,
	// modelling die/channel striping: consecutive host pages scatter
	// pseudo-randomly over the open blocks, as they do across the dies
	// of a real SSD. This decorrelates logical adjacency from physical
	// adjacency, which is what makes even sequential file churn produce
	// garbage-collection load (the analytic models the paper leans on
	// assume exactly this placement). Default 96.
	Streams int

	Profile Profile
}

// gcLowWater and gcHighWater bound the free-block pool: garbage
// collection starts when free blocks drop below gcLowWater and runs
// until gcHighWater blocks are free.
const (
	gcLowWater  = 4
	gcHighWater = 8
)

// Validate checks the configuration for consistency and fills defaults,
// returning a normalized copy.
func (c Config) Validate() (Config, error) {
	if c.PageSize <= 0 {
		return c, fmt.Errorf("flash: PageSize must be positive, got %d", c.PageSize)
	}
	if c.PagesPerBlock <= 1 {
		return c, fmt.Errorf("flash: PagesPerBlock must be > 1, got %d", c.PagesPerBlock)
	}
	if c.LogicalBytes < int64(c.PageSize*c.PagesPerBlock)*4 {
		return c, fmt.Errorf("flash: LogicalBytes %d too small for geometry", c.LogicalBytes)
	}
	if c.Profile.HardwareOP < 0 {
		return c, fmt.Errorf("flash: negative hardware OP %v", c.Profile.HardwareOP)
	}
	if c.Profile.ReadBW <= 0 || c.Profile.WriteBW <= 0 {
		return c, fmt.Errorf("flash: profile %q has non-positive bandwidth", c.Profile.Name)
	}
	if c.Profile.InternalReadBW <= 0 {
		c.Profile.InternalReadBW = c.Profile.ReadBW
	}
	if c.Profile.InternalWriteBW <= 0 {
		c.Profile.InternalWriteBW = c.Profile.WriteBW
	}
	if c.Streams <= 0 {
		c.Streams = 96
	}
	if c.Profile.Channels < 1 {
		c.Profile.Channels = 1
	}
	if c.Profile.Ways < 1 {
		c.Profile.Ways = 1
	}
	if c.Profile.CacheBytes > 0 && c.Profile.CacheWriteBW <= 0 {
		c.Profile.CacheWriteBW = c.Profile.WriteBW
	}
	return c, nil
}

// logicalPages returns the number of host-visible pages.
func (c Config) logicalPages() int64 {
	return c.LogicalBytes / int64(c.PageSize)
}

// physicalBlocks returns the number of physical erase blocks, including
// hardware over-provisioning and the free pool reserve.
func (c Config) physicalBlocks() int {
	physPages := float64(c.logicalPages()) * (1 + c.Profile.HardwareOP)
	blocks := int(physPages) / c.PagesPerBlock
	min := int(c.logicalPages())/c.PagesPerBlock + 2*gcHighWater + c.Streams + 2
	if blocks < min {
		blocks = min
	}
	return blocks
}
