// Fixed-point base-unit values for ticket and currency funding.
//
// Currency conversion (Section 4.4 of the paper) multiplies a currency's
// value by the ratio amount/active_amount at every level of the currency
// graph. Doing that in floating point makes lottery totals drift away from
// the sum of the parts; doing it in plain integers loses small shares
// entirely. Funding is a 64-bit fixed-point value (20 fractional bits) with
// exact addition and 128-bit intermediate multiply/divide, so a draw over
// [0, total) always lands inside exactly one client's interval.

#ifndef SRC_CORE_FUNDING_H_
#define SRC_CORE_FUNDING_H_

#include <compare>
#include <cstdint>
#include <string>

namespace lottery {

class Funding {
 public:
  static constexpr int kFractionalBits = 20;
  static constexpr int64_t kOne = int64_t{1} << kFractionalBits;

  constexpr Funding() : raw_(0) {}

  static constexpr Funding FromBase(int64_t base_units) {
    return Funding(base_units << kFractionalBits);
  }
  static constexpr Funding FromRaw(int64_t raw) { return Funding(raw); }
  static constexpr Funding Zero() { return Funding(0); }

  constexpr int64_t raw() const { return raw_; }
  constexpr uint64_t raw_unsigned() const {
    return static_cast<uint64_t>(raw_);
  }
  // Base units, truncated.
  constexpr int64_t base_units() const { return raw_ >> kFractionalBits; }
  // Display/reporting only; never fed back into fixed-point state.
  constexpr double ToBaseF() const {  // lotlint: float-ok
    return static_cast<double>(raw_) / static_cast<double>(kOne);
  }

  constexpr bool IsZero() const { return raw_ == 0; }
  constexpr auto operator<=>(const Funding&) const = default;

  constexpr Funding operator+(Funding o) const {
    return Funding(raw_ + o.raw_);
  }
  constexpr Funding operator-(Funding o) const {
    return Funding(raw_ - o.raw_);
  }
  Funding& operator+=(Funding o) {
    raw_ += o.raw_;
    return *this;
  }
  Funding& operator-=(Funding o) {
    raw_ -= o.raw_;
    return *this;
  }

  // Exact (value * num) / den, truncating toward zero. Used for the
  // per-level share computation and for compensation factors. A unit ratio
  // is the identity; a product that fits in 64 bits divides in 64 bits
  // (same truncation, same quotient; den == -1 is excluded because
  // INT64_MIN / -1 traps there); anything else takes the 128-bit
  // intermediate.
  constexpr Funding ScaleBy(int64_t num, int64_t den) const {
    if (num == den) {
      return *this;
    }
    int64_t product = 0;
    if (!__builtin_mul_overflow(raw_, num, &product) && den != -1) {
      return Funding(product / den);
    }
    const __int128 wide = static_cast<__int128>(raw_) * num;
    return Funding(static_cast<int64_t>(wide / den));
  }

  std::string ToString() const;

 private:
  explicit constexpr Funding(int64_t raw) : raw_(raw) {}
  int64_t raw_;
};

}  // namespace lottery

#endif  // SRC_CORE_FUNDING_H_
