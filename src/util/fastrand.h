// Park-Miller "minimal standard" pseudo-random number generator.
//
// This is a portable C++ reimplementation of the MIPS assembly routine in
// Appendix A of the lottery-scheduling paper (Waldspurger & Weihl, OSDI '94).
// It computes the multiplicative linear congruential generator
//
//     S' = (A * S) mod M,   A = 16807,  M = 2^31 - 1
//
// using Carta's trick [Car90]: split the 46-bit product A*S into the low 31
// bits P and the high 15 bits Q; then S' = P + Q, folding any overflow out of
// bit 31 back into the low bits. The paper reports ~10 RISC instructions per
// draw; the C++ version compiles to a comparably tiny sequence.
//
// References: [Par88] Park & Miller, CACM 31(10); [Car90] Carta, CACM 33(1).

#ifndef SRC_UTIL_FASTRAND_H_
#define SRC_UTIL_FASTRAND_H_

#include <cstdint>
#include <stdexcept>

namespace lottery {

// Multiplicative LCG with full period 2^31 - 2 over [1, 2^31 - 2].
//
// The generator is deliberately the same one the paper's prototype used so
// that lottery draws have the same statistical quality and cost profile.
// It is deterministic and copyable; simulations derive all randomness from a
// single seeded instance to stay reproducible.
class FastRand {
 public:
  static constexpr uint32_t kModulus = 0x7FFFFFFFu;  // 2^31 - 1 (prime)
  static constexpr uint32_t kMultiplier = 16807u;    // 7^5

  // Seeds the generator. Any seed is accepted: values are folded into the
  // valid range [1, kModulus - 1] (0 and kModulus are fixed points of the
  // recurrence and must be avoided).
  explicit FastRand(uint32_t seed = 1u) { Seed(seed); }

  void Seed(uint32_t seed) {
    seed %= kModulus;
    state_ = (seed == 0) ? 1u : seed;
  }

  // Returns the next raw value in [1, 2^31 - 2]. This mirrors the paper's
  // `fastrand(s)` exactly: same recurrence, same sequence for equal seeds.
  uint32_t Next() {
    const uint64_t product = static_cast<uint64_t>(state_) * kMultiplier;
    // P = low 31 bits, Q = high bits (the paper's R10 and R9).
    uint32_t s = static_cast<uint32_t>(product & kModulus) +
                 static_cast<uint32_t>(product >> 31);
    // Handle (rare) overflow out of bit 31, as in the appendix's
    // `overflow:` branch: clear bit 31 and add one.
    if (s & 0x80000000u) {
      s = (s & kModulus) + 1u;
    }
    state_ = s;
    return s;
  }

  // Returns a uniformly distributed value in [0, bound). Uses rejection
  // sampling so every residue is exactly equally likely (a plain modulo
  // would bias small values; lotteries are fairness-sensitive).
  // Throws std::out_of_range unless 0 < bound <= 2^31 - 2: a zero bound
  // divides by zero and a larger one leaves no accepted value.
  uint32_t NextBelow(uint32_t bound) {
    // Raw outputs are in [1, kModulus - 1]; shift to [0, kModulus - 2].
    constexpr uint32_t range = kModulus - 1u;  // distinct raw outputs
    if (bound == 0 || bound > range) {
      throw std::out_of_range("FastRand::NextBelow: bound not in [1, 2^31-2]");
    }
    // Largest multiple of `bound` not exceeding the raw range size.
    const uint32_t limit = range - range % bound;
    uint32_t value = Next() - 1u;
    while (value >= limit) {
      value = Next() - 1u;
    }
    return value % bound;
  }

  // Returns a uniformly distributed 62-bit value in [0, (M-1)^2) by
  // combining two consecutive 31-bit draws. Lottery totals are expressed in
  // fixed-point base units that can exceed 32 bits, so winning-ticket
  // selection needs a wide uniform draw.
  uint64_t Next62() {
    const uint64_t hi = Next() - 1u;  // in [0, M-2]
    const uint64_t lo = Next() - 1u;
    return hi * (kModulus - 1u) + lo;
  }

  // Number of distinct Next62() values, (M-1)^2 (~4.6e18).
  static constexpr uint64_t kRange =
      static_cast<uint64_t>(kModulus - 1u) * (kModulus - 1u);

  // Returns a uniformly distributed value in [0, bound) for 64-bit bounds.
  // Throws std::out_of_range unless 0 < bound <= kRange: a ticket total past
  // kRange would otherwise leave the rejection loop below no value to accept.
  uint64_t NextBelow64(uint64_t bound) {
    if (bound == 0 || bound > kRange) {
      throw std::out_of_range(
          "FastRand::NextBelow64: bound not in [1, kRange]");
    }
    const uint64_t limit = kRange - kRange % bound;
    uint64_t value = Next62();
    while (value >= limit) {
      value = Next62();
    }
    return value % bound;
  }

  // Returns a uniform double in [0, 1).
  double NextUnit() {
    return static_cast<double>(Next() - 1u) /
           static_cast<double>(kModulus - 1u);
  }

  // Current internal state (useful for checkpointing simulations).
  uint32_t state() const { return state_; }

  // Convenience: splits off an independent-ish child generator. The child's
  // seed is derived from this stream through a 64-bit mix (seeding the child
  // directly with Next() would leave parent and child in identical states);
  // adequate for decorrelating workload jitter from lottery draws.
  FastRand Split();

 private:
  uint32_t state_;
};

// 64-bit splittable generator used only for seeding experiments from a
// single user-supplied `--seed` (SplitMix64, public domain constants).
// Lottery draws themselves always use FastRand to match the paper.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  // A nonzero 31-bit seed suitable for FastRand.
  uint32_t NextFastRandSeed() {
    return static_cast<uint32_t>(Next() % (FastRand::kModulus - 1u)) + 1u;
  }

 private:
  uint64_t state_;
};

inline FastRand FastRand::Split() {
  SplitMix64 mixer(Next());
  return FastRand(mixer.NextFastRandSeed());
}

}  // namespace lottery

#endif  // SRC_UTIL_FASTRAND_H_
