#include "engine/cost_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>

#include "engine/registry.hpp"
#include "engine/scenario.hpp"
#include "obs/metrics_registry.hpp"
#include "poly/plan_store.hpp"
#include "util/rational.hpp"
#include "util/status.hpp"

namespace ddm::engine {

namespace {

struct PolicyMetrics {
  obs::Counter refreshes = obs::counter("engine.policy.refreshes");
  obs::Gauge loaded = obs::gauge("engine.policy.loaded");

  static const PolicyMetrics& get() {
    static const PolicyMetrics metrics;
    return metrics;
  }
};

constexpr double kEwmaAlpha = 0.2;
/// Live observation stops CREATING cells past this total so a long-running
/// daemon's table stays bounded; existing cells keep refining forever.
constexpr std::size_t kMaxLiveCells = 4096;

std::mutex g_configured_mutex;
std::shared_ptr<CostModel> g_configured;  // NOLINT: guarded global
bool g_configured_resolved = false;       // NOLINT: guarded global

[[nodiscard]] std::uint64_t cell_key(std::uint32_t n, std::uint32_t batch) noexcept {
  return (static_cast<std::uint64_t>(n) << 32) | batch;
}

/// Keeps `axis` sorted and unique under cell insertion.
void insert_axis(std::vector<std::uint32_t>& axis, std::uint32_t value) {
  const auto it = std::lower_bound(axis.begin(), axis.end(), value);
  if (it == axis.end() || *it != value) axis.insert(it, value);
}

/// The two axis values bracketing `value` (equal when `value` is outside the
/// grid or hits a grid point — prediction clamps at the edges).
[[nodiscard]] std::pair<std::uint32_t, std::uint32_t> bracket(
    const std::vector<std::uint32_t>& axis, std::uint32_t value) {
  if (value <= axis.front()) return {axis.front(), axis.front()};
  if (value >= axis.back()) return {axis.back(), axis.back()};
  const auto hi = std::lower_bound(axis.begin(), axis.end(), value);
  if (*hi == value) return {value, value};
  return {*(hi - 1), *hi};
}

/// Interpolation weight for `value` between lo and hi on a log2 axis.
[[nodiscard]] double log_weight(std::uint32_t lo, std::uint32_t hi, std::uint32_t value) {
  if (hi == lo) return 0.0;
  return (std::log2(static_cast<double>(value)) - std::log2(static_cast<double>(lo))) /
         (std::log2(static_cast<double>(hi)) - std::log2(static_cast<double>(lo)));
}

/// True for the digests that mean the paper's default game: the homogeneous
/// digest and the legacy empty string both map to the bare engine row, so
/// every pre-scenario table row, caller, and byte of saved output is
/// unchanged.
[[nodiscard]] bool is_default_scenario(std::string_view scenario) noexcept {
  return scenario.empty() || scenario == "homogeneous";
}

/// The row key a (engine, scenario) pair measures under: the bare engine id
/// for the default game, "engine@digest" otherwise. The digest is
/// whitespace-free by construction (engine/scenario.hpp), so the composite
/// token survives the table's whitespace-delimited cell lines verbatim.
[[nodiscard]] std::string scenario_row_key(std::string_view engine, std::string_view scenario) {
  std::string key(engine);
  if (!is_default_scenario(scenario)) {
    key += '@';
    key += scenario;
  }
  return key;
}

}  // namespace

void CostModel::set_cell(const std::string& engine, std::uint32_t n, std::uint32_t batch,
                         double seconds_per_point) {
  if (engine.empty() || n == 0 || batch == 0 || !std::isfinite(seconds_per_point) ||
      seconds_per_point <= 0.0) {
    throw Error("CostModel::set_cell: invalid cell (engine '" + engine + "', n=" +
                std::to_string(n) + ", batch=" + std::to_string(batch) + ", seconds_per_point=" +
                std::to_string(seconds_per_point) + ")");
  }
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  set_cell_locked(engine, n, batch, seconds_per_point);
}

void CostModel::set_cell_locked(const std::string& engine, std::uint32_t n, std::uint32_t batch,
                                double seconds_per_point) {
  EngineGrid& grid = engines_[engine];
  grid.cells[cell_key(n, batch)] = seconds_per_point;
  insert_axis(grid.ns, n);
  insert_axis(grid.batches, batch);
}

double CostModel::predict(std::string_view engine, std::uint32_t n, std::size_t batch,
                          std::string_view scenario) const {
  const bool generalized = !is_default_scenario(scenario);
  const std::string key = generalized ? scenario_row_key(engine, scenario) : std::string{};
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = engines_.find(generalized ? std::string_view{key} : engine);
  if (it == engines_.end() || it->second.cells.empty()) {
    return std::numeric_limits<double>::infinity();
  }
  const auto clamped_batch = static_cast<std::uint32_t>(
      std::min<std::size_t>(std::max<std::size_t>(batch, 1), 0xffffffffu));
  return std::exp(predict_log_locked(it->second, std::max<std::uint32_t>(n, 1), clamped_batch));
}

void CostModel::order(std::string_view* engines, std::size_t count, std::uint32_t n,
                      std::size_t batch, std::string_view scenario) const {
  const auto clamped_batch = static_cast<std::uint32_t>(
      std::min<std::size_t>(std::max<std::size_t>(batch, 1), 0xffffffffu));
  const std::uint32_t clamped_n = std::max<std::uint32_t>(n, 1);
  const bool generalized = !is_default_scenario(scenario);
  std::vector<std::pair<double, std::string_view>> keyed;
  keyed.reserve(count);
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    for (std::size_t i = 0; i < count; ++i) {
      const auto it = generalized ? engines_.find(scenario_row_key(engines[i], scenario))
                                  : engines_.find(engines[i]);
      // A log-cost of -infinity is a (degenerate) zero-seconds prediction
      // and still ranks as measured.
      const double log_cost = it == engines_.end() || it->second.cells.empty()
                                  ? std::numeric_limits<double>::infinity()
                                  : predict_log_locked(it->second, clamped_n, clamped_batch);
      keyed.emplace_back(log_cost, engines[i]);
    }
  }
  // Insertion sort: stable, and without std::stable_sort's scratch buffer
  // for the handful of candidates a chain holds.
  for (std::size_t i = 1; i < count; ++i) {
    for (std::size_t j = i; j > 0 && keyed[j].first < keyed[j - 1].first; --j) {
      std::swap(keyed[j], keyed[j - 1]);
    }
  }
  for (std::size_t i = 0; i < count; ++i) engines[i] = keyed[i].second;
}

double CostModel::predict_log_locked(const EngineGrid& grid, std::uint32_t n,
                                     std::uint32_t batch) const {
  const auto [n0, n1] = bracket(grid.ns, n);
  const auto [b0, b1] = bracket(grid.batches, batch);
  const std::uint32_t corner_n[2] = {n0, n1};
  const std::uint32_t corner_b[2] = {b0, b1};
  double log_cost[2][2];
  bool complete = true;
  for (int i = 0; i < 2 && complete; ++i) {
    for (int j = 0; j < 2 && complete; ++j) {
      const auto cell = grid.cells.find(cell_key(corner_n[i], corner_b[j]));
      if (cell == grid.cells.end()) {
        complete = false;
      } else {
        log_cost[i][j] = std::log(cell->second);
      }
    }
  }
  if (complete) {
    // Bilinear in (log2 n, log2 batch) over LOG seconds-per-point: engine
    // cost grows geometrically in n (O(3^n) kernels), so interpolating the
    // logarithm is the model that matches the mechanism.
    const double wn = log_weight(n0, n1, std::min(std::max(n, n0), n1));
    const double wb = log_weight(b0, b1, std::min(std::max(batch, b0), b1));
    const double low = log_cost[0][0] * (1.0 - wb) + log_cost[0][1] * wb;
    const double high = log_cost[1][0] * (1.0 - wb) + log_cost[1][1] * wb;
    return low * (1.0 - wn) + high * wn;
  }
  // Ragged grid (a calibration budget skip or live-created cell): nearest
  // measured cell by log-distance. The grids are tiny, a scan is fine.
  double best_distance = std::numeric_limits<double>::infinity();
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& [key, seconds] : grid.cells) {
    const auto cell_n = static_cast<double>(key >> 32);
    const auto cell_b = static_cast<double>(key & 0xffffffffu);
    const double dn = std::log2(cell_n) - std::log2(static_cast<double>(n));
    const double db = std::log2(cell_b) - std::log2(static_cast<double>(batch));
    const double distance = dn * dn + db * db;
    if (distance < best_distance) {
      best_distance = distance;
      best_cost = seconds;
    }
  }
  return std::log(best_cost);
}

bool CostModel::empty() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  for (const auto& [engine, grid] : engines_) {
    if (!grid.cells.empty()) return false;
  }
  return true;
}

std::size_t CostModel::cell_count() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& [engine, grid] : engines_) count += grid.cells.size();
  return count;
}

std::vector<CostCell> CostModel::cells() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<CostCell> result;
  for (const auto& [engine, grid] : engines_) {
    for (const auto& [key, seconds] : grid.cells) {
      result.push_back(CostCell{engine, static_cast<std::uint32_t>(key >> 32),
                                static_cast<std::uint32_t>(key & 0xffffffffu), seconds});
    }
  }
  return result;  // map iteration order == (engine, n, batch) sort order
}

void CostModel::observe(std::string_view engine, std::uint32_t n, std::size_t batch,
                        double seconds_per_point, std::string_view scenario) {
  if (engine.empty() || n == 0 || batch == 0 || !std::isfinite(seconds_per_point) ||
      seconds_per_point <= 0.0) {
    return;  // live refinement never throws on a weird sample, it drops it
  }
  // Generalized-game samples refine (and create) their own scenario-keyed
  // rows — a daemon serving mixed games never pollutes the homogeneous cells
  // the calibrated table shipped with.
  const std::string row = scenario_row_key(engine, scenario);
  // Bucket the batch size to the geometrically nearest power of two so live
  // observations land on (and refine) a bounded cell grid.
  std::uint32_t bucket = 1;
  while (bucket < 0x80000000u && static_cast<std::size_t>(bucket) * 2 <= batch) bucket <<= 1;
  if (bucket < 0x80000000u &&
      static_cast<double>(batch) > static_cast<double>(bucket) * 1.5) {
    bucket <<= 1;
  }
  {
    const std::unique_lock<std::shared_mutex> lock(mutex_);
    const auto it = engines_.find(row);
    auto* grid = it != engines_.end() ? &it->second : nullptr;
    const auto key = cell_key(n, bucket);
    if (grid != nullptr) {
      if (const auto cell = grid->cells.find(key); cell != grid->cells.end()) {
        cell->second = (1.0 - kEwmaAlpha) * cell->second + kEwmaAlpha * seconds_per_point;
        PolicyMetrics::get().refreshes.add();
        return;
      }
    }
    std::size_t total = 0;
    for (const auto& [id, engine_grid] : engines_) total += engine_grid.cells.size();
    if (total >= kMaxLiveCells) return;
    set_cell_locked(row, n, bucket, seconds_per_point);
  }
  PolicyMetrics::get().refreshes.add();
}

void CostModel::save(const std::string& path) const {
  std::ostringstream body;
  body << "ddmpolicy v" << kPolicyFormatVersion << "\n";
  body << "origin calibrate\n";
  body << "t_regime n/3\n";
  {
    std::ostringstream cell_text;
    cell_text.precision(17);
    for (const CostCell& cell : cells()) {
      cell_text << "cell " << cell.engine << ' ' << cell.n << ' ' << cell.batch << ' '
                << cell.seconds_per_point << "\n";
    }
    body << cell_text.str();
  }
  const std::string text = body.str();
  const std::uint64_t checksum = poly::plan_store_checksum(text.data(), text.size());
  std::ostringstream trailer;
  trailer << "checksum " << std::hex;
  trailer.width(16);
  trailer.fill('0');
  trailer << checksum << "\n";

  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    out << text << trailer.str();
    if (!out.good()) {
      std::remove(temp.c_str());
      throw PolicyError("cannot write table", path, "save");
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::remove(temp.c_str());
    throw PolicyError("cannot rename temp file into place: " + ec.message(), path, "save");
  }
}

std::shared_ptr<CostModel> CostModel::load(const std::string& path, const std::string& source) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw PolicyError("cannot open file", path, source);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // The checksum trailer must be the final line; everything before it is the
  // checksummed body.
  const std::size_t trailer_at = text.rfind("checksum ");
  if (trailer_at == std::string::npos ||
      (trailer_at != 0 && text[trailer_at - 1] != '\n')) {
    throw PolicyError("missing checksum trailer (truncated file?)", path, source);
  }
  const std::string trailer = text.substr(trailer_at);
  std::istringstream trailer_in(trailer);
  std::string keyword, hex_digits, extra;
  trailer_in >> keyword >> hex_digits;
  if (keyword != "checksum" || hex_digits.size() != 16 || (trailer_in >> extra)) {
    throw PolicyError("malformed checksum trailer '" + trailer + "'", path, source);
  }
  std::uint64_t recorded = 0;
  for (const char digit : hex_digits) {
    const auto value = static_cast<unsigned>(
        digit >= '0' && digit <= '9'   ? digit - '0'
        : digit >= 'a' && digit <= 'f' ? digit - 'a' + 10
        : digit >= 'A' && digit <= 'F' ? digit - 'A' + 10
                                       : 16);
    if (value == 16) {
      throw PolicyError("malformed checksum trailer '" + trailer + "'", path, source);
    }
    recorded = (recorded << 4) | value;
  }
  const std::uint64_t actual = poly::plan_store_checksum(text.data(), trailer_at);
  if (actual != recorded) {
    throw PolicyError("checksum mismatch (file corrupt?)", path, source);
  }

  std::istringstream lines(text.substr(0, trailer_at));
  std::string line;
  if (!std::getline(lines, line) || line.rfind("ddmpolicy v", 0) != 0) {
    throw PolicyError("not a policy table (bad magic line '" + line + "')", path, source);
  }
  const std::string version_text = line.substr(11);
  std::uint32_t version = 0;
  try {
    std::size_t used = 0;
    version = static_cast<std::uint32_t>(std::stoul(version_text, &used));
    if (used != version_text.size()) throw std::invalid_argument(version_text);
  } catch (const std::exception&) {
    throw PolicyError("malformed version '" + version_text + "'", path, source);
  }
  if (version != kPolicyFormatVersion) {
    throw PolicyError("format version " + std::to_string(version) + " (current " +
                          std::to_string(kPolicyFormatVersion) + "; re-run ddm_cli calibrate)",
                      path, source, /*stale=*/true);
  }

  auto model = std::make_shared<CostModel>();
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head == "origin" || head == "t_regime") {
      std::string value;
      if (!(fields >> value) || (fields >> value)) {
        throw PolicyError("malformed header line '" + line + "'", path, source);
      }
      continue;
    }
    if (head != "cell") {
      throw PolicyError("unknown line '" + line + "'", path, source);
    }
    std::string engine;
    std::uint32_t n = 0;
    std::uint32_t batch = 0;
    double seconds = 0.0;
    std::string tail;
    if (!(fields >> engine >> n >> batch >> seconds) || (fields >> tail) || engine.empty() ||
        n == 0 || batch == 0 || !std::isfinite(seconds) || seconds <= 0.0) {
      throw PolicyError("malformed cell line '" + line + "'", path, source);
    }
    // A scenario-keyed row carries its game as an "engine@digest" token
    // (ddm_serve's live-refined saves). The digest must parse — a corrupt
    // suffix would otherwise create an unreachable row that silently never
    // matches any request.
    if (const std::size_t at = engine.find('@'); at != std::string::npos) {
      if (at == 0) {
        throw PolicyError("malformed cell line '" + line + "' (empty engine)", path, source);
      }
      try {
        (void)Scenario::parse(std::string_view(engine).substr(at + 1));
      } catch (const Error& error) {
        throw PolicyError(
            "malformed scenario in cell line '" + line + "': " + error.what(), path, source);
      }
    }
    if (std::isfinite(model->predict(engine, n, batch)) &&
        model->engines_[engine].cells.count(cell_key(n, batch)) != 0) {
      throw PolicyError("duplicate cell line '" + line + "'", path, source);
    }
    model->set_cell(engine, n, batch, seconds);
  }
  if (model->empty()) {
    throw PolicyError("table has no cells", path, source);
  }
  return model;
}

std::shared_ptr<CostModel> CostModel::calibrate(const CalibrationOptions& options) {
  auto model = std::make_shared<CostModel>();
  Registry& registry = Registry::instance();
  std::vector<std::uint32_t> batches = options.batches;
  std::sort(batches.begin(), batches.end());
  for (const std::string& engine_id : options.engines) {
    const Evaluator& evaluator = registry.require(engine_id);
    for (const std::uint32_t n : options.ns) {
      if (n == 0) continue;
      double base_per_point = std::numeric_limits<double>::quiet_NaN();
      for (const std::uint32_t batch : batches) {
        if (batch == 0) continue;
        // Budget gate: once a smaller batch at this n has measured the
        // per-point cost, skip batches whose projected total would dwarf the
        // cell budget — the nearest-cell fallback in predict() covers them.
        if (std::isfinite(base_per_point) &&
            base_per_point * static_cast<double>(batch) > 10.0 * options.cell_budget_seconds) {
          continue;
        }
        EvalRequest request;
        request.n = n;
        request.t = util::Rational(n, 3);  // the paper's t-regime (see header)
        request.betas.reserve(batch);
        for (std::uint32_t k = 0; k < batch; ++k) {
          request.betas.push_back(static_cast<double>(k + 1) / static_cast<double>(batch + 1));
        }
        if (!evaluator.supports(request)) continue;
        const auto run_once = [&evaluator, &request]() {
          const auto start = std::chrono::steady_clock::now();
          (void)evaluator.evaluate(request);
          return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        };
        try {
          double last_warmup = 0.0;
          for (unsigned w = 0; w < std::max(options.warmup, 1u); ++w) last_warmup = run_once();
          // Every cell times at least one run after the warmup, which may
          // have been a plan lowering rather than steady state. An
          // over-budget warmup gets one timed sample instead of `repeats`.
          const unsigned runs =
              last_warmup > options.cell_budget_seconds ? 1u : std::max(options.repeats, 1u);
          std::vector<double> samples;
          samples.reserve(runs);
          for (unsigned r = 0; r < runs; ++r) samples.push_back(run_once());
          std::sort(samples.begin(), samples.end());
          const double measured = samples[samples.size() / 2];
          const double per_point = measured / static_cast<double>(batch);
          if (std::isfinite(per_point) && per_point > 0.0) {
            model->set_cell(engine_id, n, batch, per_point);
            if (!std::isfinite(base_per_point)) base_per_point = per_point;
          }
        } catch (const std::exception&) {
          // An engine that cannot answer this cell (lowering failure, size
          // cap) simply leaves it unmeasured; prediction falls back to the
          // nearest measured neighbor.
        }
      }
    }
  }
  return model;
}

std::shared_ptr<CostModel> CostModel::configured() {
  const std::lock_guard<std::mutex> lock(g_configured_mutex);
  if (!g_configured_resolved) {
    if (const char* path = std::getenv("DDM_POLICY"); path != nullptr && *path != '\0') {
      // NB: resolved is only latched on success — a bad DDM_POLICY throws on
      // EVERY consultation rather than silently dispatching cold after the
      // first one.
      g_configured = load(path, "DDM_POLICY");
    }
    g_configured_resolved = true;
  }
  // Refresh the gauge on every resolution, not just the first: Gauge::set is
  // dropped while metrics are disabled, and ddm_serve installs its table at
  // config-parse time — before --metrics/… enables the registry. Re-setting
  // here means the first consultation after enablement reports the truth,
  // and an unconfigured process exposes engine.policy.loaded = 0 rather than
  // omitting the metric (dashboards read absence as "old binary", not "no
  // table").
  PolicyMetrics::get().loaded.set(g_configured != nullptr ? 1 : 0);
  return g_configured;
}

void CostModel::set_configured(std::shared_ptr<CostModel> model) {
  const std::lock_guard<std::mutex> lock(g_configured_mutex);
  g_configured_resolved = true;
  g_configured = std::move(model);
  PolicyMetrics::get().loaded.set(g_configured != nullptr ? 1 : 0);
}

}  // namespace ddm::engine
