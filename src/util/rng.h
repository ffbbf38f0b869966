// Deterministic pseudo-random number generation.
//
// Snowboard's exploration is randomized but must be reproducible: Algorithm 2 reseeds the
// generator with SEED + trial at the start of every trial so that a found interleaving can be
// replayed exactly. We use SplitMix64, which is tiny, fast, and has no global state — every
// component owns its own Rng instance.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>

namespace snowboard {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  // Reseeds in place; used by Algorithm 2's `random.seed(SEED + trial)`.
  void Seed(uint64_t seed) { state_ = seed; }

  // Next 64 uniform bits (SplitMix64).
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Uniform integer in [0, bound). bound == 0 returns 0.
  uint64_t Below(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi);

  // True with probability num/den.
  bool Chance(uint64_t num, uint64_t den) { return den != 0 && Below(den) < num; }

  // True with probability 1/2 — the `random()` coin flip in Algorithm 2.
  bool Coin() { return (Next() & 1) != 0; }

 private:
  uint64_t state_;
};

}  // namespace snowboard

#endif  // SRC_UTIL_RNG_H_
