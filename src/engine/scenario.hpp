// scenario.hpp — the decision game an EvalRequest is posed over.
//
// The paper's base model is n players with x_i ~ U[0, 1] dropping into two
// bins of capacity t. Its probabilistic machinery (Lemma 2.4/2.7) is stated
// for arbitrary ranges U[0, π_i], and core/heterogeneous.cpp implements the
// generalized Theorems 4.1/5.1 exactly — but until this seam existed the
// engine layer hard-coded the homogeneous game. A Scenario makes "what game
// is being evaluated" an explicit, digestible part of every EvalRequest:
//
//   homogeneous              x_i ~ U[0, 1]                     (the default)
//   heterogeneous:<ranges>   x_i ~ U[0, c_i], per-player c_i > 0
//   deviating:<k>            k of the n players deviate adversarially from
//                            the symmetric threshold protocol; the reported
//                            value is the worst case over their (oblivious)
//                            strategies
//
// The canonical digest is a short, whitespace-free text form of the scenario
// (ranges in lowest terms, comma-separated) that doubles as the wire/CLI
// descriptor syntax: it keys the plan cache, the compiled-bound memo, the
// cost-model table rows, and the sweep checkpoint header, so no cached
// artifact computed for one game can ever be replayed for another.
// Evaluators advertise scenario support through Evaluator::supports(); the
// engines that cannot serve a generalized game (kernel, batch, compiled)
// decline honestly, keeping rank()'s candidate chains correct without
// special cases.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rational.hpp"

namespace ddm::engine {

/// The game family an evaluation request is posed over. Value type; the
/// default-constructed Scenario is the paper's homogeneous U[0,1] game.
class Scenario {
 public:
  enum class Kind : std::uint8_t {
    kHomogeneous,    ///< x_i ~ U[0, 1] — the paper's base model
    kHeterogeneous,  ///< x_i ~ U[0, c_i] with per-player ranges c_i > 0
    kDeviating,      ///< k players deviate adversarially; worst-case value
  };

  Scenario() = default;

  [[nodiscard]] static Scenario homogeneous() { return Scenario{}; }
  /// Heterogeneous ranges c_i > 0. Throws ddm::Error naming the offending
  /// index when a range is not positive, or when `ranges` is empty.
  [[nodiscard]] static Scenario heterogeneous(std::vector<util::Rational> ranges);
  /// k >= 1 adversarially deviating players. Throws ddm::Error on k == 0.
  [[nodiscard]] static Scenario deviating(std::uint32_t deviators);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_default() const noexcept { return kind_ == Kind::kHomogeneous; }
  /// Per-player ranges (heterogeneous only; empty otherwise).
  [[nodiscard]] const std::vector<util::Rational>& ranges() const noexcept { return ranges_; }
  /// Deviator count (deviating only; 0 otherwise).
  [[nodiscard]] std::uint32_t deviators() const noexcept { return deviators_; }

  /// Stable canonical digest: "homogeneous", "heterogeneous:1/2,1,2" (ranges
  /// in lowest terms, comma-separated, order-preserving), or "deviating:2".
  /// Whitespace-free by construction, so it is safe as a cache-key segment,
  /// a cost-model row token, and a checkpoint header value. Two scenarios
  /// are the same game iff their digests are byte-equal.
  [[nodiscard]] const std::string& digest() const noexcept { return digest_; }

  /// Validates this scenario against an n-player request: heterogeneous
  /// needs exactly n ranges, deviating needs k < n. Throws ddm::Error with
  /// `what` as the message prefix.
  void check_players(std::uint32_t n, const char* what) const;

  /// Parses a canonical descriptor (the digest syntax above). Throws
  /// ddm::Error naming the malformed part.
  [[nodiscard]] static Scenario parse(std::string_view descriptor);

  /// Parses a comma-separated rational ranges list ("1/2,1,2"). Throws
  /// ddm::Error naming the offending entry index (empty entries included).
  [[nodiscard]] static std::vector<util::Rational> parse_ranges(std::string_view text);

  friend bool operator==(const Scenario& a, const Scenario& b) noexcept {
    return a.digest_ == b.digest_;
  }

 private:
  Kind kind_ = Kind::kHomogeneous;
  std::vector<util::Rational> ranges_;
  std::uint32_t deviators_ = 0;
  std::string digest_ = "homogeneous";
};

[[nodiscard]] const char* to_string(Scenario::Kind kind) noexcept;

}  // namespace ddm::engine
