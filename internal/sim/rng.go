package sim

// RNG is a small, fast, deterministic random number generator (splitmix64).
// Every stochastic choice in the simulator draws from an engine-owned RNG so
// that runs replay identically for a given seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15}
}

// State returns the generator's internal state, for checkpointing.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state previously returned by State.
func (r *RNG) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value uniform on [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Time returns a duration uniform on [0, n).
func (r *RNG) Time(n Time) Time {
	if n == 0 {
		return 0
	}
	return Time(r.Uint64() % uint64(n))
}

// Float64 returns a value uniform on [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Jitter returns base perturbed by at most ±frac (e.g. 0.05 for ±5%),
// modelling small per-run variation in compute times.
func (r *RNG) Jitter(base Time, frac float64) Time {
	if base == 0 || frac <= 0 {
		return base
	}
	span := float64(base) * frac
	delta := (r.Float64()*2 - 1) * span
	v := float64(base) + delta
	if v < 1 {
		v = 1
	}
	return Time(v)
}
