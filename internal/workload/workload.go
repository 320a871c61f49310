// Package workload generates the key-value workloads of the paper's
// evaluation (§3.2): a sequential load phase followed by single-threaded
// update traffic with a configurable read fraction, value size and key
// distribution (uniform by default, Zipfian available).
package workload

import (
	"fmt"
	"math"

	"ptsbench/internal/sim"
)

// Dist selects the key distribution of the update phase.
type Dist int

const (
	// Uniform picks keys uniformly at random (the paper's default).
	Uniform Dist = iota
	// Zipfian picks keys with a YCSB-style scrambled Zipfian skew.
	Zipfian
	// SequentialDist cycles keys in increasing order, wrapping around.
	SequentialDist
)

// String implements fmt.Stringer.
func (d Dist) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	case SequentialDist:
		return "sequential"
	default:
		return fmt.Sprintf("dist(%d)", int(d))
	}
}

// ParseDist maps a distribution name (as produced by String) back to
// its value; spec files and CLI flags use it.
func ParseDist(name string) (Dist, error) {
	switch name {
	case "uniform":
		return Uniform, nil
	case "zipfian":
		return Zipfian, nil
	case "sequential":
		return SequentialDist, nil
	default:
		return 0, fmt.Errorf("workload: unknown distribution %q (have uniform, zipfian, sequential)", name)
	}
}

// Spec describes a workload.
type Spec struct {
	NumKeys      uint64
	ValueBytes   int
	ReadFraction float64 // 0 = write-only, 0.5 = the paper's 50:50 mix
	Dist         Dist
	ZipfTheta    float64 // skew for Zipfian (YCSB default 0.99)
	// Skew redirects this fraction of operations to a hot subset (the
	// lowest NumKeys/16 key ids) on top of the base distribution,
	// modeling the working-set concentration of multi-tenant serving
	// traffic without changing the distribution machinery. At 0 the
	// generator draws no extra randomness, so historical single-client
	// key streams are bit-identical.
	Skew float64
}

// Validate rejects nonsense and fills defaults.
func (s Spec) Validate() (Spec, error) {
	if s.NumKeys == 0 {
		return s, fmt.Errorf("workload: NumKeys must be positive")
	}
	if s.ValueBytes <= 0 {
		return s, fmt.Errorf("workload: ValueBytes must be positive")
	}
	if s.ReadFraction < 0 || s.ReadFraction > 1 {
		return s, fmt.Errorf("workload: ReadFraction %v outside [0,1]", s.ReadFraction)
	}
	if s.Skew < 0 || s.Skew > 1 {
		return s, fmt.Errorf("workload: Skew %v outside [0,1]", s.Skew)
	}
	if s.Dist == Zipfian && s.ZipfTheta == 0 {
		s.ZipfTheta = 0.99
	}
	return s, nil
}

// OpKind is a read or a write.
type OpKind int

// Op kinds.
const (
	OpWrite OpKind = iota
	OpRead
)

// Op is one generated operation.
type Op struct {
	Kind  OpKind
	KeyID uint64
}

// Generator produces the operation stream.
type Generator struct {
	spec    Spec
	rng     *sim.RNG
	zipf    *zipfGen
	seq     uint64
	hotKeys uint64
}

func hotKeysOf(spec Spec) uint64 {
	hot := spec.NumKeys / 16
	if hot == 0 {
		hot = 1
	}
	return hot
}

// mix64 is the SplitMix64 finalizer; mix64(0) == 0, which ClientSeed
// and the store's shard routing rely on.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ClientSeed derives client c's generator seed from the shared base
// seed (itself drawn from the experiment seed). Client 0 gets the base
// seed unchanged — mix64(0) is 0 — so single-client runs keep the exact
// historical key stream no matter how many shards serve it; every other
// client gets an independent stream.
func ClientSeed(base uint64, client int) uint64 {
	return base ^ mix64(uint64(client))
}

// NewClientGenerators builds one deterministic generator per closed-loop
// client, all drawing from the same validated spec. The Zipfian rank
// table (an O(NumKeys) zeta sum) is computed once and shared; sequential
// clients start staggered at client×NumKeys/clients so they cover the
// keyspace instead of marching in lockstep.
func NewClientGenerators(spec Spec, baseSeed uint64, clients int) ([]*Generator, error) {
	if clients < 1 {
		return nil, fmt.Errorf("workload: clients must be >= 1 (got %d)", clients)
	}
	spec, err := spec.Validate()
	if err != nil {
		return nil, err
	}
	var shared *zipfGen
	if spec.Dist == Zipfian {
		shared = newZipfGen(spec.NumKeys, spec.ZipfTheta)
	}
	gens := make([]*Generator, clients)
	stride := spec.NumKeys / uint64(clients)
	for c := range gens {
		gens[c] = &Generator{
			spec:    spec,
			rng:     sim.NewRNG(ClientSeed(baseSeed, c)),
			zipf:    shared,
			seq:     uint64(c) * stride,
			hotKeys: hotKeysOf(spec),
		}
	}
	return gens, nil
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	var op Op
	if g.spec.ReadFraction > 0 && g.rng.Float64() < g.spec.ReadFraction {
		op.Kind = OpRead
	}
	switch g.spec.Dist {
	case Uniform:
		op.KeyID = g.rng.Uint64n(g.spec.NumKeys)
	case Zipfian:
		op.KeyID = g.zipf.next(g.rng)
	case SequentialDist:
		op.KeyID = g.seq % g.spec.NumKeys
		g.seq++
	}
	if g.spec.Skew > 0 && g.rng.Float64() < g.spec.Skew {
		op.KeyID %= g.hotKeys
	}
	return op
}

// zipfGen implements the Gray et al. Zipfian generator used by YCSB,
// with final scrambling so that popular keys are spread over the
// keyspace rather than clustered at the low end.
type zipfGen struct {
	n     uint64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	rank1 float64 // 1 + 0.5^theta: next draws rank 1 below it
}

func newZipfGen(n uint64, theta float64) *zipfGen {
	z := &zipfGen{n: n}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.rank1 = 1 + math.Pow(0.5, theta)
	return z
}

func zeta(n uint64, theta float64) float64 {
	// For large n this O(n) sum is computed once per generator; the
	// keyspaces used by the harness keep it affordable.
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipfGen) next(rng *sim.RNG) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.rank1:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	// Scramble: FNV-style hash of the rank, mod n.
	h := rank*0x9E3779B97F4A7C15 + 0x123456789
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h % z.n
}
