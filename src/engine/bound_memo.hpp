// bound_memo.hpp — direct-mapped memo of compiled-plan certificate bounds.
//
// Lowering is deterministic, so the bound for a given (n, t) never changes —
// but engine::rank() needs it on EVERY auto call, and a
// PlanCache::get_or_lower round trip (string key construction, LRU splice
// under the cache mutex) costs about as much as ranking all three
// candidates. Only successful lowerings land here; failures keep throwing
// through the lowering probe, so fault injection (DDM_FAULT_PLAN) stays
// visible to auto dispatch.
//
// Slots are keyed by (n, t, scenario digest): compiled plans exist only for
// the homogeneous game today, but the digest is part of the slot identity so
// a future generalized lowering can never satisfy a lookup for a different
// game — the scenario-keyed caching property tests/test_scenario.cpp pins.
// Extracted from registry.cpp (where it was file-local) precisely so that
// property is directly testable.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "util/rational.hpp"

namespace ddm::engine {

class BoundMemo {
 public:
  BoundMemo() = default;

  /// The process-wide instance used by engine::rank().
  static BoundMemo& get() {
    static BoundMemo memo;
    return memo;
  }

  [[nodiscard]] std::optional<double> lookup(std::uint32_t n, const util::Rational& t,
                                             std::string_view scenario_digest) const {
    const Slot& slot = slots_[index(n, t)];
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (slot.valid && slot.n == n && slot.t == t && slot.scenario_digest == scenario_digest) {
      return slot.bound;
    }
    return std::nullopt;
  }

  void store(std::uint32_t n, const util::Rational& t, std::string_view scenario_digest,
             double bound) {
    Slot& slot = slots_[index(n, t)];
    std::unique_lock<std::shared_mutex> lock(mutex_);
    slot.n = n;
    slot.t = t;
    slot.scenario_digest = std::string(scenario_digest);
    slot.bound = bound;
    slot.valid = true;
  }

  BoundMemo(const BoundMemo&) = delete;
  BoundMemo& operator=(const BoundMemo&) = delete;

 private:
  struct Slot {
    bool valid = false;
    std::uint32_t n = 0;
    util::Rational t;
    std::string scenario_digest;
    double bound = 0.0;
  };
  static constexpr std::size_t kSlots = 64;

  // Collisions are harmless: the full (n, t, digest) comparison above
  // rejects them and the slot is simply re-used by whichever key stored
  // last. The digest stays out of the hash — same-slot traffic across
  // scenarios costs a re-store, never a wrong answer.
  static std::size_t index(std::uint32_t n, const util::Rational& t) {
    const double approx = t.to_double();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &approx, sizeof(bits));
    bits ^= bits >> 17;
    bits ^= static_cast<std::uint64_t>(n) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(bits % kSlots);
  }

  mutable std::shared_mutex mutex_;
  std::array<Slot, kSlots> slots_;
};

}  // namespace ddm::engine
