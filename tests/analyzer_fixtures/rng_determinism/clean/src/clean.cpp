// Must pass every rule.  The near-miss shapes of rng-determinism:
// seed-derived randomness, and an explicitly seeded std engine (allowed --
// only the *argless* form is flagged).
#include <random>

unsigned lcg_from_seed(unsigned seed) {
    return seed * 1664525u + 1013904223u;
}

unsigned seeded_engine(unsigned seed) {
    std::mt19937 gen(seed);  // seeded from the experiment: allowed
    return static_cast<unsigned>(gen());
}
