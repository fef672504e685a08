#include "prob/uniform_sum.hpp"

#include <algorithm>
#include <string>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "combinat/binomial.hpp"

namespace ddm::prob {

using util::BigInt;
using util::Rational;

namespace {

constexpr std::size_t kMaxExactDimension = 30;

void check_pi_positive(std::span<const Rational> pi, const char* what) {
  for (const Rational& p : pi) {
    if (p.signum() <= 0) throw std::invalid_argument(std::string(what) + ": ranges must be > 0");
  }
  if (pi.size() > kMaxExactDimension) {
    throw std::invalid_argument(std::string(what) + ": too many variables for subset masks");
  }
}

// Adds the terms of classes c.. of a grouped volume to `sum`: `base` is x
// minus the widths already taken, `coefficient` their binomial weight, `odd`
// the parity of their count. The base only falls as s_c grows, so a class
// stops at its first non-positive base.
struct VolumeWalk {
  std::span<const BigInt> widths;
  std::span<const std::uint32_t> counts;
  std::uint32_t exponent = 0;
  BigInt sum;
  std::uint64_t terms = 0;

  void add(std::size_t c, BigInt base, const BigInt& coefficient, bool odd) {
    if (c == widths.size()) {
      const BigInt term = coefficient * BigInt::pow(base, exponent);
      sum += odd ? -term : term;
      ++terms;
      return;
    }
    BigInt weight = coefficient;  // coefficient · C(counts_c, s), exact at every step
    for (std::uint32_t s = 0; s <= counts[c] && base.signum() > 0; ++s) {
      if (s > 0) weight = weight * BigInt{counts[c] - s + 1} / BigInt{s};
      add(c + 1, base, weight, odd != (s % 2 == 1));
      base -= widths[c];
    }
  }
};

BigInt scaled(const Rational& value, const BigInt& denominator) {
  return value.num() * (denominator / value.den());
}

// π and t over their common denominator D, equal widths merged into classes.
struct ScaledWidths {
  std::vector<BigInt> widths;
  std::vector<std::uint32_t> counts;
  BigInt x;        // t·D
  BigInt scale;    // D
  BigInt product;  // Π_l π_l·D
};

ScaledWidths scale_widths(std::span<const Rational> pi, const Rational& t) {
  std::vector<Rational> values(pi.begin(), pi.end());
  values.push_back(t);
  ScaledWidths out;
  out.scale = common_denominator(values);
  out.x = scaled(t, out.scale);
  out.product = BigInt{1};
  for (const Rational& p : pi) {
    BigInt width = scaled(p, out.scale);
    out.product *= width;
    const auto it = std::find(out.widths.begin(), out.widths.end(), width);
    if (it != out.widths.end()) {
      ++out.counts[static_cast<std::size_t>(it - out.widths.begin())];
    } else {
      out.widths.push_back(std::move(width));
      out.counts.push_back(1);
    }
  }
  return out;
}

}  // namespace

BigInt grouped_uniform_volume(std::span<const BigInt> widths,
                              std::span<const std::uint32_t> counts, const BigInt& x,
                              std::uint32_t exponent, std::uint64_t* terms) {
  VolumeWalk walk{widths, counts, exponent, BigInt{0}, 0};
  if (x.signum() > 0) walk.add(0, x, BigInt{1}, false);
  if (terms != nullptr) *terms += walk.terms;
  return std::move(walk.sum);
}

BigInt common_denominator(std::span<const Rational> values) {
  BigInt denominator{1};
  for (const Rational& value : values) {
    const BigInt factor = value.den() / BigInt::gcd(denominator, value.den());
    if (factor != BigInt{1}) denominator *= factor;
  }
  return denominator;
}

Rational sum_uniform_cdf(std::span<const Rational> pi, const Rational& t) {
  check_pi_positive(pi, "sum_uniform_cdf");
  if (t.signum() < 0) return Rational{0};
  const std::size_t m = pi.size();
  if (m == 0) return Rational{1};
  const ScaledWidths s = scale_widths(pi, t);
  Rational result{grouped_uniform_volume(s.widths, s.counts, s.x, static_cast<std::uint32_t>(m)),
                  BigInt::factorial(static_cast<std::uint32_t>(m)) * s.product};
  // The formula already saturates at 1 for t >= Σ π_l; clamp defensively for
  // exactness of the declared contract under rounding-free arithmetic.
  if (result > Rational{1}) result = Rational{1};
  return result;
}

Rational sum_uniform_pdf(std::span<const Rational> pi, const Rational& t) {
  check_pi_positive(pi, "sum_uniform_pdf");
  const std::size_t m = pi.size();
  if (m == 0) return Rational{0};
  if (t.signum() < 0) return Rational{0};
  // Lemma 2.5: same alternating sum with exponent m-1 and 1/(m-1)!; one
  // factor of D survives the scaling.
  const ScaledWidths s = scale_widths(pi, t);
  const auto e = static_cast<std::uint32_t>(m - 1);
  return Rational{s.scale * grouped_uniform_volume(s.widths, s.counts, s.x, e),
                  BigInt::factorial(e) * s.product};
}

Rational irwin_hall_cdf(std::uint32_t m, const Rational& t) {
  if (t.signum() < 0) return Rational{0};
  if (m == 0) return Rational{1};
  if (t >= Rational{static_cast<std::int64_t>(m)}) return Rational{1};
  // Corollary 2.6, (1/m!) Σ_{0<=i<=m, i<t} (-1)^i C(m,i) (t-i)^m: one class of
  // m unit widths.
  const BigInt width = t.den();
  const std::uint32_t count = m;
  return Rational{grouped_uniform_volume({&width, 1}, {&count, 1}, t.num(), m),
                  BigInt::factorial(m) * BigInt::pow(width, m)};
}

Rational sum_shifted_uniform_cdf(std::span<const Rational> pi, const Rational& t) {
  for (const Rational& p : pi) {
    if (p.signum() < 0 || p >= Rational{1}) {
      throw std::invalid_argument("sum_shifted_uniform_cdf: need 0 <= pi < 1");
    }
  }
  if (pi.size() > kMaxExactDimension) {
    throw std::invalid_argument("sum_shifted_uniform_cdf: too many variables");
  }
  // Lemma 2.7 is Lemma 2.4 shifted: x_i ~ U[π_i, 1] is π_i + U[0, 1 − π_i].
  std::vector<Rational> widths;
  Rational shift{0};
  for (const Rational& p : pi) {
    widths.push_back(Rational{1} - p);
    shift += p;
  }
  return sum_uniform_cdf(widths, t - shift);
}

// -- double versions ----------------------------------------------------------

double sum_uniform_cdf(std::span<const double> pi, double t) {
  const std::size_t m = pi.size();
  if (m > 26) throw std::invalid_argument("sum_uniform_cdf: too many variables");
  if (t < 0.0) return 0.0;
  if (m == 0) return 1.0;
  double sum = 0.0;
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    double subset_sum = 0.0;
    for (std::size_t l = 0; l < m; ++l) {
      if (mask & (std::uint64_t{1} << l)) subset_sum += pi[l];
    }
    if (subset_sum >= t) continue;
    const double term = std::pow(t - subset_sum, static_cast<double>(m));
    sum += (__builtin_popcountll(mask) % 2 == 0) ? term : -term;
  }
  double denominator = 1.0;
  for (const double p : pi) denominator *= p;
  const double result =
      sum * combinat::inverse_factorial_double(static_cast<std::uint32_t>(m)) / denominator;
  return std::clamp(result, 0.0, 1.0);
}

double sum_uniform_pdf(std::span<const double> pi, double t) {
  const std::size_t m = pi.size();
  if (m > 26) throw std::invalid_argument("sum_uniform_pdf: too many variables");
  if (m == 0 || t < 0.0) return 0.0;
  double sum = 0.0;
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    double subset_sum = 0.0;
    for (std::size_t l = 0; l < m; ++l) {
      if (mask & (std::uint64_t{1} << l)) subset_sum += pi[l];
    }
    if (subset_sum >= t) continue;
    const double term = std::pow(t - subset_sum, static_cast<double>(m - 1));
    sum += (__builtin_popcountll(mask) % 2 == 0) ? term : -term;
  }
  double denominator = 1.0;
  for (const double p : pi) denominator *= p;
  return sum * combinat::inverse_factorial_double(static_cast<std::uint32_t>(m - 1)) /
         denominator;
}

double irwin_hall_cdf(std::uint32_t m, double t) {
  if (t < 0.0) return 0.0;
  if (m == 0) return 1.0;
  if (t >= static_cast<double>(m)) return 1.0;
  double sum = 0.0;
  for (std::uint32_t i = 0; i <= m && static_cast<double>(i) < t; ++i) {
    const double term =
        combinat::binomial_double(m, i) * std::pow(t - static_cast<double>(i), m);
    sum += (i % 2 == 0) ? term : -term;
  }
  return std::clamp(sum * combinat::inverse_factorial_double(m), 0.0, 1.0);
}

double sum_shifted_uniform_cdf(std::span<const double> pi, double t) {
  const std::size_t m = pi.size();
  if (m > 26) throw std::invalid_argument("sum_shifted_uniform_cdf: too many variables");
  if (m == 0) return t >= 0.0 ? 1.0 : 0.0;
  double sum = 0.0;
  const std::uint64_t limit = std::uint64_t{1} << m;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    double subset_sum = 0.0;
    for (std::size_t l = 0; l < m; ++l) {
      if (mask & (std::uint64_t{1} << l)) subset_sum += pi[l];
    }
    const int i = __builtin_popcountll(mask);
    const double base = static_cast<double>(m) - t - static_cast<double>(i) + subset_sum;
    if (base <= 0.0) continue;
    const double term = std::pow(base, static_cast<double>(m));
    sum += (i % 2 == 0) ? term : -term;
  }
  double denominator = 1.0;
  for (const double p : pi) denominator *= (1.0 - p);
  const double result =
      1.0 - sum * combinat::inverse_factorial_double(static_cast<std::uint32_t>(m)) / denominator;
  return std::clamp(result, 0.0, 1.0);
}

}  // namespace ddm::prob
