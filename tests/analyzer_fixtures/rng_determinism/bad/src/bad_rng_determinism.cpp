// Must be flagged by [rng-determinism].  Every randomness
// source here decouples the run from the experiment seed: rand() and the
// argless engine use process-invariant default state, std::random_device
// is entropy by design.
#include <cstdlib>
#include <random>

int roll_libc() { return std::rand() % 6; }

int roll_unqualified() { return rand() % 6; }

unsigned hardware_entropy() {
    std::random_device rd;
    return rd();
}

unsigned default_seeded() {
    std::mt19937 gen;  // argless: fixed default seed, not the experiment's
    return gen();
}
