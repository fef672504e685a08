// policy.hpp — the engine-selection policy of ddm::engine.
//
// An EnginePolicy names either a concrete engine id or "auto";
// engine::rank (engine/registry.hpp) resolves it against a request into an
// ordered candidate chain. The two constants below bound auto's use of the
// compiled plan: it is a candidate only for symmetric homogeneous grids with
// 1 <= n <= kCompiledAutoMaxN whose certified max-error bound clears the
// REQUEST tolerance (EvalRequest::tolerance, which defaults to
// kCompiledAutoTolerance).
#pragma once

#include <cstdint>
#include <string>

namespace ddm::engine {

/// Equal to EvalRequest's default tolerance, so it is the compiled-plan
/// certificate auto accepts from callers that set none (every CLI auto
/// request) and the default bound of `ddm_cli plans precompile`.
inline constexpr double kCompiledAutoTolerance = 1e-9;

/// The n cap past which auto does not even attempt the symbolic lowering
/// (the exact piecewise build grows combinatorially and its certified bound
/// blows past any useful tolerance anyway); forcing engine "compiled" still
/// tries.
inline constexpr std::uint32_t kCompiledAutoMaxN = 16;

/// Caller-supplied selection policy. Default-constructed == the CLI default
/// (`--engine=auto`).
struct EnginePolicy {
  /// Registry id to force, or "auto" to let the policy decide.
  std::string engine = "auto";

  [[nodiscard]] bool is_auto() const noexcept { return engine == "auto"; }
};

}  // namespace ddm::engine
