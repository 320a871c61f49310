package sim

// RNG is a deterministic pseudo-random number generator (SplitMix64
// followed by xorshift mixing). Experiments must be reproducible
// bit-for-bit across runs, so all randomness in ptsbench flows through
// seeded RNG instances rather than math/rand global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := new(RNG)
	r.Reseed(seed)
	return r
}

// Reseed restarts r in place on the stream NewRNG(seed) would start,
// for an owner that keeps its generator across uses.
func (r *RNG) Reseed(seed uint64) {
	r.state = seed
	// Warm up so that small seeds do not produce small first outputs.
	r.Uint64()
	r.Uint64()
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	// SplitMix64 (Steele, Lea, Flood 2014): passes BigCrush, tiny state.
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n called with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Split returns a new generator whose stream is independent of the
// receiver's subsequent outputs; use it to give each subsystem its own
// stream from one experiment seed.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
