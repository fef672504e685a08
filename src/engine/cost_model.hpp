// cost_model.hpp — the measured per-engine latency model behind `auto`.
//
// engine::rank() (engine/registry.hpp) orders the candidate engines for a
// request by this model's predictions. On the serving path the ordering
// matters exactly where the paper's workload lives: in the mid-n band the
// compiled plan's certificate clears the tolerance the REQUEST asked for,
// and the plan — once cached — is orders of magnitude faster per point than
// the O(3^n) batch kernel, while at small n the serial kernel can beat the
// parallel batch kernel on one-point requests. A CostModel turns that
// ordering into a measurement problem: a log-spaced table of per-engine
// seconds-per-point cells, calibrated on the machine that will serve
// (`ddm_cli calibrate`), persisted next to the plan store as a versioned +
// checksummed text table. rank() stable-sorts its candidates by
// prediction; an empty model (no table loaded) predicts nothing and leaves
// rank()'s built-in order in place, so "no table" is not a separate path.
//
// Table format (text, line-based; checksummed with the plan store's FNV-1a):
//
//   ddmpolicy v1
//   origin calibrate
//   t_regime n/3
//   cell <engine> <n> <batch> <seconds_per_point>
//   ...
//   checksum <16 hex digits>
//
// The <engine> token of a cell row is either a bare registry id (the
// homogeneous default game) or "engine@<scenario digest>" for rows measured
// under a generalized scenario (engine/scenario.hpp) — ddm_serve's live
// refinement writes such rows when it serves heterogeneous or deviating
// requests. Both forms are plain v1: a pre-scenario loader reads the
// composite token as an opaque engine name, and this loader validates the
// digest suffix strictly, so no cached cost measured for one game can ever
// rank engines for another.
//
// The `checksum` trailer is poly::plan_store_checksum over every byte that
// precedes its own line, so truncation, bit rot, and hand-edits are all
// caught on load (ddm::PolicyError naming the file AND the knob that pointed
// at it; a bumped version line is the one soft failure, stale() == true).
//
// Prediction interpolates bilinearly in (log2 n, log2 batch) between the
// measured cells, clamped at the grid edges; engines the table has no data
// for predict +infinity (rank() then keeps their built-in order).
// The live refinement path (`observe`, used by ddm_serve's workers) folds
// measured request latencies into the matching cell with an EWMA, so a
// long-running daemon tracks thermal drift and noisy-neighbor effects
// without re-calibrating. All methods are thread-safe.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ddm::engine {

/// Current table format version; tables stamped with any other version are
/// rejected as stale (PolicyError::stale() == true), mirroring
/// poly::kPlanStoreFormatVersion.
inline constexpr std::uint32_t kPolicyFormatVersion = 1;

/// One measured grid cell: seconds per evaluated point for `engine` on an
/// n-player instance answered in batches of `batch` points.
struct CostCell {
  std::string engine;
  std::uint32_t n = 0;
  std::uint32_t batch = 0;
  double seconds_per_point = 0.0;
};

/// Knobs for CostModel::calibrate. The defaults produce a log-spaced
/// (n, batch) grid over the three interchangeable-value engines in a few
/// seconds on a release build.
struct CalibrationOptions {
  /// Engines to measure, in measurement order.
  std::vector<std::string> engines{"compiled", "batch", "kernel"};
  /// n grid (log-spaced by default; calibrate() clamps per-engine support).
  std::vector<std::uint32_t> ns{1, 2, 4, 8, 12};
  /// Batch-size grid (points per request).
  std::vector<std::uint32_t> batches{1, 16, 256};
  /// Timed samples per cell; the recorded value is their median.
  unsigned repeats = 3;
  /// Unrecorded runs per cell before sampling (absorbs plan lowering, pool
  /// spin-up, and cache effects).
  unsigned warmup = 1;
  /// When the warmup run alone exceeds this budget the cell records one
  /// timed run after it instead of `repeats`, and larger batches at the same
  /// n are extrapolated, so a slow serial engine cannot stretch calibration
  /// into minutes.
  double cell_budget_seconds = 0.25;
};

class CostModel {
 public:
  CostModel() = default;

  /// Inserts or overwrites one cell. Throws ddm::Error when
  /// `seconds_per_point` is not finite and positive or `n`/`batch` is zero.
  void set_cell(const std::string& engine, std::uint32_t n, std::uint32_t batch,
                double seconds_per_point);

  /// Predicted seconds-per-point for `engine` at (n, batch): bilinear
  /// interpolation in (log2 n, log2 batch) over the engine's cells, clamped
  /// at the grid edges. +infinity when the table has no cell for the engine.
  /// `scenario` selects the row the pair measures under (see the class
  /// comment): the homogeneous digest and the legacy empty default both read
  /// the bare engine row, any other digest reads "engine@digest".
  [[nodiscard]] double predict(std::string_view engine, std::uint32_t n, std::size_t batch,
                               std::string_view scenario = {}) const;

  /// Stable-sorts `engines[0..count)` by predicted cost at (n, batch).
  /// Engines without data predict +infinity, so they keep their order
  /// behind the measured ones. Equivalent to sorting by predict(), but
  /// ranks in log space under a single lock — the per-request hot path of
  /// engine::rank, where an exp() and a lock per candidate are measurable.
  void order(std::string_view* engines, std::size_t count, std::uint32_t n, std::size_t batch,
             std::string_view scenario = {}) const;

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t cell_count() const;
  /// Every cell, sorted by (engine, n, batch) — the save/inspect order.
  [[nodiscard]] std::vector<CostCell> cells() const;

  /// Live refinement: folds one measured seconds-per-point into the cell at
  /// (n, round-to-power-of-two(batch)) with an EWMA (alpha = 0.2), creating
  /// the cell on first observation. Counted as `engine.policy.refreshes`.
  /// Worker-safe; a bounded cell budget keeps a long-running daemon's table
  /// from growing without limit. Samples measured under a non-default
  /// scenario land in their own "engine@digest" row, never in the
  /// homogeneous cells.
  void observe(std::string_view engine, std::uint32_t n, std::size_t batch,
               double seconds_per_point, std::string_view scenario = {});

  /// Serializes the table atomically (temp file + rename), versioned and
  /// checksummed. Throws ddm::PolicyError on I/O failure.
  void save(const std::string& path) const;

  /// Loads and validates a table. `source` names the knob that pointed at
  /// the file ("DDM_POLICY", "--policy", "--policy-table") for the error
  /// message. Throws ddm::PolicyError on any validation failure; never
  /// returns a partially parsed table.
  [[nodiscard]] static std::shared_ptr<CostModel> load(const std::string& path,
                                                       const std::string& source);

  /// Runs the deterministic calibration protocol against the process engine
  /// registry: for every (engine, n, batch) cell, `warmup` unrecorded runs
  /// followed by `repeats` timed runs of a fixed β-grid request at the
  /// paper's t = n/3 regime, recording the median seconds-per-point.
  /// Throws ddm::Error when an engine id is unknown.
  [[nodiscard]] static std::shared_ptr<CostModel> calibrate(const CalibrationOptions& options);

  /// The process-wide model consulted by engine::rank, lazily resolved
  /// from DDM_POLICY on first call (strict: a set but unloadable variable
  /// throws ddm::PolicyError naming it — a misconfigured policy must fail
  /// loudly, never silently dispatch cold). nullptr when unconfigured.
  [[nodiscard]] static std::shared_ptr<CostModel> configured();

  /// Overrides the process-wide model (tests, --policy, ddm_serve
  /// --policy-table). nullptr disables model consultation; the
  /// `engine.policy.loaded` gauge tracks the transition.
  static void set_configured(std::shared_ptr<CostModel> model);

 private:
  /// Cells for one engine: key = (n << 32) | batch, plus the sorted axis
  /// values predict() brackets against.
  struct EngineGrid {
    std::map<std::uint64_t, double> cells;
    std::vector<std::uint32_t> ns;
    std::vector<std::uint32_t> batches;
  };

  /// Log of the predicted seconds-per-point (predict() is exp of this);
  /// +infinity when the grid cannot cover (n, batch). Log space keeps the
  /// ranking in order() exp-free.
  [[nodiscard]] double predict_log_locked(const EngineGrid& grid, std::uint32_t n,
                                          std::uint32_t batch) const;
  void set_cell_locked(const std::string& engine, std::uint32_t n, std::uint32_t batch,
                       double seconds_per_point);

  mutable std::shared_mutex mutex_;
  std::map<std::string, EngineGrid, std::less<>> engines_;
};

}  // namespace ddm::engine
