// perfbench_trace — the traced replay of a perfbench workload.
//
// Replays a workload's request stream or job list in this process through
// the library's public entry points and records a span around each call.
// The spans are recorded here, in the benchmark, not inside the program:
// every span is one call into one layer.
//
//   perfbench_trace serve --requests=FILE --stream=FILE --out=PREFIX
//   perfbench_trace sweep --jobs=FILE --out=PREFIX
//
// serve: FILE lines are the request bodies the generator sent and the
// stream lists the body index of each request in the order it was sent.
// After a span-free warm-up pass, which sets N to what it completes within
// 2.5 s, the replay runs three passes over the same first N requests:
//   service   EvalService::handle_line twice per request, back to back in
//             alternating order: under a recorded span (pass.request) and
//             with recording off; the two totals give the tracing overhead
//   layers    per request, back to back, in rotating order:
//             net.service   = EvalService::handle_line (decode, admission,
//                             queue, worker hand-off, evaluation, encode)
//             request       = the same request through the layer calls:
//               net.decode    = net::parse_flat_object
//               engine.select = engine::select
//               engine.evaluate = engine::evaluate_resilient
//               net.encode    = net::JsonWriter, building the reply
//             poly.compiled / core.batch / core.<engine> = the engine auto
//                             selects, its Evaluator::evaluate alone
//             so the differences between the three calls of one request id
//             are the service's and the engine layer's own time, free of
//             drift between passes
//   direct    the direct calls again, span-free, for the work counters
// The first touch of each (n, t) plan is timed before the passes as
// poly.lower (engine::PlanCache::get_or_lower on an empty cache).
//
// sweep: FILE lines are ddm_cli argument lists (`sweep n t lo hi steps
// [--engine=id] [--certify] [--scenario=desc]` or `analyze n t`). Each job
// starts from an empty plan cache, as a fresh ddm_cli process does, and runs
// under a `job` span whose children are the layer calls the CLI makes.
//
// Output: PREFIX.spans holds `id parent name request start_ns end_ns` per
// span; PREFIX.<pass>.before.prom / .after.prom hold the metrics registry
// around the direct pass (serve) and around each job (sweep), so counters
// can be divided by the time of the calls that moved them; PREFIX.passes
// holds `pass requests seconds` lines.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/certified.hpp"
#include "core/symmetric_threshold.hpp"
#include "engine/plan_cache.hpp"
#include "engine/registry.hpp"
#include "engine/resilient.hpp"
#include "engine/scenario.hpp"
#include "net/ndjson.hpp"
#include "net/service.hpp"
#include "obs/metrics_registry.hpp"
#include "util/parallel.hpp"
#include "util/rational.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ddm::util::Rational;

constexpr double kWarmupSeconds = 2.5;  // sets the number of requests replayed

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::int64_t request = -1;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// In-memory span recorder; written out once, when the replay ends.
class Recorder {
 public:
  explicit Recorder(std::string prefix) : prefix_(std::move(prefix)), origin_(Clock::now()) {}

  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  /// Runs `call(id)` under a span named `name`; `id` is the parent id the
  /// call gives its own child spans.
  template <class Fn>
  void span(const std::string& name, std::uint64_t parent, std::int64_t request, Fn&& call) {
    const std::uint64_t id = next_id_++;
    Span s{id, parent, name, request, now(), 0};
    call(id);
    s.end = now();
    if (enabled_) spans_.push_back(std::move(s));
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }

  void dump_metrics(const std::string& pass, const char* edge) const {
    std::ofstream out(prefix_ + "." + pass + "." + edge + ".prom");
    ddm::obs::Registry::instance().write_prometheus(out);
  }

  void pass(const std::string& name, std::size_t requests, std::int64_t elapsed_ns) {
    passes_ << name << ' ' << requests << ' ' << static_cast<double>(elapsed_ns) * 1e-9 << '\n';
  }

  void write() const {
    std::ofstream out(prefix_ + ".spans");
    for (const Span& s : spans_) {
      out << s.id << ' ' << s.parent << ' ' << s.name << ' ' << s.request << ' ' << s.start
          << ' ' << s.end << '\n';
    }
    std::ofstream(prefix_ + ".passes") << passes_.str();
  }

 private:
  std::string prefix_;
  Clock::time_point origin_;
  std::uint64_t next_id_ = 1;
  bool enabled_ = true;
  std::vector<Span> spans_;
  std::ostringstream passes_;
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("bad argument '" + arg + "'");
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  return flags;
}

const std::string& need(const std::map<std::string, std::string>& flags, const char* key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument(std::string("missing --") + key);
  return it->second;
}

/// Span name of a direct engine call: the layer that does the work.
std::string direct_span_name(std::string_view engine_id) {
  if (engine_id == "compiled") return "poly.compiled";
  return "core." + std::string(engine_id);
}

ddm::engine::EvalRequest request_from(const ddm::net::JsonObject& body) {
  auto request = ddm::engine::EvalRequest::symmetric(
      static_cast<std::uint32_t>(ddm::net::require_u64(body, "n")),
      Rational::parse(ddm::net::require_string(body, "t")),
      {ddm::net::require_number(body, "beta")});
  const std::string scenario = ddm::net::get_string(body, "scenario", "");
  if (!scenario.empty()) request.scenario = ddm::engine::Scenario::parse(scenario);
  return request;
}

int run_serve(const std::map<std::string, std::string>& flags) {
  const std::vector<std::string> bodies = read_lines(need(flags, "requests"));
  std::vector<std::string> lines;
  {
    std::ifstream in(need(flags, "stream"));
    std::uint64_t k = 0;
    for (std::size_t idx; in >> idx; ++k) {
      if (idx >= bodies.size()) throw std::runtime_error("stream index out of range");
      lines.push_back("{\"id\":\"" + std::to_string(k) + "\"," + bodies[idx] + "}");
    }
  }
  if (lines.empty()) throw std::runtime_error("empty stream");
  Recorder recorder(need(flags, "out"));
  ddm::obs::set_metrics_enabled(true);  // as in ddm_serve

  // Cold plan lowering, once per distinct instance of the table.
  std::set<std::pair<std::uint32_t, std::string>> lowered;
  std::int64_t pass_start = recorder.now();
  for (const std::string& body : bodies) {
    const auto request = request_from(ddm::net::parse_flat_object("{" + body + "}"));
    const auto key = std::make_pair(request.n, request.t.to_string());
    if (!request.scenario.is_default() || !lowered.insert(key).second) continue;
    recorder.span("poly.lower", 0, -1, [&](std::uint64_t) {
      try {
        (void)ddm::engine::PlanCache::instance().get_or_lower(request.n, request.t);
      } catch (const std::exception&) {
        // An instance that cannot lower is served by another engine.
      }
    });
  }
  recorder.pass("lower", lowered.size(), recorder.now() - pass_start);

  ddm::net::EvalService service{ddm::net::ServiceConfig{}};

  // Warm-up pass, span-free: N is what it completes within kWarmupSeconds.
  std::size_t count = 0;
  pass_start = recorder.now();
  const auto deadline = static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  while (count < lines.size() && recorder.now() - pass_start < deadline) {
    (void)service.handle_line(lines[count++]);
  }

  // Traced and untraced on the same request, back to back, so the tracing
  // overhead is free of drift between passes.
  std::int64_t traced_ns = 0;
  std::int64_t untraced_ns = 0;
  recorder.span("pass.service", 0, -1, [&](std::uint64_t root) {
    for (std::size_t k = 0; k < count; ++k) {
      for (const bool traced : {k % 2 == 0, k % 2 != 0}) {
        recorder.set_enabled(traced);
        const std::int64_t start = recorder.now();
        recorder.span("pass.request", root, static_cast<std::int64_t>(k),
                      [&](std::uint64_t) { (void)service.handle_line(lines[k]); });
        (traced ? traced_ns : untraced_ns) += recorder.now() - start;
      }
    }
    recorder.set_enabled(true);
  });
  recorder.pass("service", count, traced_ns);
  recorder.pass("untraced", count, untraced_ns);

  ddm::engine::ResilientOptions options;  // the daemon's service policy
  options.retry = ddm::net::ServiceConfig{}.retry;
  const ddm::engine::Registry& registry = ddm::engine::Registry::instance();
  const auto request_at = [&](std::size_t k) {
    return request_from(ddm::net::parse_flat_object(lines[k]));
  };
  std::vector<std::string> chosen(count);  // the engine auto picks, for the direct call
  for (std::size_t k = 0; k < count; ++k) {
    chosen[k] = std::string(ddm::engine::select(options.policy, request_at(k)).id());
  }

  pass_start = recorder.now();
  recorder.span("pass.layers", 0, -1, [&](std::uint64_t root) {
    for (std::size_t k = 0; k < count; ++k) {
      const auto r = static_cast<std::int64_t>(k);
      const auto served = [&] {
        recorder.span("net.service", root, r,
                      [&](std::uint64_t) { (void)service.handle_line(lines[k]); });
      };
      const auto layered = [&] {
        recorder.span("request", root, r, [&](std::uint64_t parent) {
          ddm::net::JsonObject body;
          recorder.span("net.decode", parent, r,
                        [&](std::uint64_t) { body = ddm::net::parse_flat_object(lines[k]); });
          const auto request = request_from(body);
          recorder.span("engine.select", parent, r, [&](std::uint64_t) {
            (void)ddm::engine::select(options.policy, request);
          });
          ddm::engine::EvalOutcome outcome;
          recorder.span("engine.evaluate", parent, r, [&](std::uint64_t) {
            outcome = ddm::engine::evaluate_resilient(options, request);
          });
          recorder.span("net.encode", parent, r, [&](std::uint64_t) {
            ddm::net::JsonWriter reply;
            reply.field("id", ddm::net::get_string(body, "id", ""))
                .field("ok", true)
                .field("op", "threshold")
                .field("value", outcome.values.at(0))
                .field("engine", outcome.engine_id);
            (void)reply.str();
          });
        });
      };
      const auto direct = [&] {
        const auto request = request_at(k);
        const ddm::engine::Evaluator& evaluator = registry.require(chosen[k]);
        recorder.span(direct_span_name(chosen[k]), root, r,
                      [&](std::uint64_t) { (void)evaluator.evaluate(request); });
      };
      // Rotate the order, so no call always runs on data the previous left warm.
      const std::function<void()> calls[] = {served, layered, direct};
      for (std::size_t i = 0; i < 3; ++i) calls[(k + i) % 3]();
    }
  });
  recorder.pass("layers", count, recorder.now() - pass_start);

  // The direct calls once more, span-free, between two registry dumps: the
  // work counters they move (the evaluations are deterministic).
  recorder.dump_metrics("direct", "before");
  pass_start = recorder.now();
  for (std::size_t k = 0; k < count; ++k) {
    (void)registry.require(chosen[k]).evaluate(request_at(k));
  }
  recorder.pass("direct", count, recorder.now() - pass_start);
  recorder.dump_metrics("direct", "after");
  recorder.write();
  return 0;
}

/// One ddm_cli job replayed through the calls the CLI makes for it.
void replay_job(Recorder& recorder, const std::vector<std::string>& args, std::uint64_t root,
                std::int64_t job) {
  if (args.size() == 3 && args[0] == "analyze") {
    const auto n = static_cast<std::uint32_t>(std::stoul(args[1]));
    const Rational t = Rational::parse(args[2]);
    recorder.span("core.analyze", root, job, [&](std::uint64_t) {
      const auto analysis = ddm::core::SymmetricThresholdAnalysis::build(n, t);
      (void)analysis.optimize();
    });
    return;
  }
  if (args.size() < 6 || args[0] != "sweep") throw std::invalid_argument("unsupported job");
  const auto n = static_cast<std::uint32_t>(std::stoul(args[1]));
  const Rational t = Rational::parse(args[2]);
  const Rational lo = Rational::parse(args[3]);
  const Rational hi = Rational::parse(args[4]);
  const auto steps = static_cast<std::uint32_t>(std::stoul(args[5]));
  std::string engine_id = "auto";
  std::string scenario;
  bool certify = false;
  for (std::size_t i = 6; i < args.size(); ++i) {
    if (args[i] == "--certify") {
      certify = true;
    } else if (args[i].rfind("--engine=", 0) == 0) {
      engine_id = args[i].substr(9);
    } else if (args[i].rfind("--scenario=", 0) == 0) {
      scenario = args[i].substr(11);
    } else {
      throw std::invalid_argument("unsupported job flag '" + args[i] + "'");
    }
  }
  if (certify) {
    if (!scenario.empty()) throw std::invalid_argument("certified scenario jobs unsupported");
    std::vector<Rational> betas(steps + 1, Rational{0});
    for (std::uint32_t k = 0; k <= steps; ++k) {
      betas[k] = std::clamp(lo + (hi - lo) * Rational{static_cast<std::int64_t>(k)} /
                                     Rational{static_cast<std::int64_t>(steps)},
                            Rational{0}, Rational{1});
    }
    recorder.span("core.certify", root, job, [&](std::uint64_t) {
      ddm::util::ParallelOptions options;
      options.grain = 1;
      ddm::util::parallel_for(
          0, betas.size(),
          [&](std::size_t a, std::size_t b) {
            for (std::size_t k = a; k < b; ++k) {
              (void)ddm::core::certified_symmetric_threshold_winning_probability(n, betas[k], t);
            }
          },
          options);
    });
    return;
  }
  const double lo_d = lo.to_double();
  const double hi_d = hi.to_double();
  std::vector<double> betas(steps + 1);
  for (std::uint32_t k = 0; k <= steps; ++k) {
    betas[k] = std::clamp(
        lo_d + (hi_d - lo_d) * static_cast<double>(k) / static_cast<double>(steps), 0.0, 1.0);
  }
  auto request = ddm::engine::EvalRequest::symmetric(n, t, std::move(betas));
  if (!scenario.empty()) request.scenario = ddm::engine::Scenario::parse(scenario);
  ddm::engine::EnginePolicy policy;
  policy.engine = engine_id;
  if (engine_id == "compiled") {
    recorder.span("poly.lower", root, job, [&](std::uint64_t) {
      (void)ddm::engine::PlanCache::instance().get_or_lower(n, t);
    });
  }
  const ddm::engine::Evaluator* evaluator = nullptr;
  recorder.span("engine.select", root, job, [&](std::uint64_t) {
    evaluator = ddm::engine::select(policy, request).evaluator;
  });
  std::string name = direct_span_name(evaluator->id());
  if (request.scenario.digest().rfind("heterogeneous", 0) == 0) name = "core.heterogeneous";
  if (request.scenario.digest().rfind("deviating", 0) == 0) name = "core.deviating";
  recorder.span(name, root, job, [&](std::uint64_t) { (void)evaluator->evaluate(request); });
}

int run_sweep(const std::map<std::string, std::string>& flags) {
  const std::vector<std::string> jobs = read_lines(need(flags, "jobs"));
  Recorder recorder(need(flags, "out"));
  ddm::obs::set_metrics_enabled(true);  // as `ddm_cli --metrics`
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::istringstream words(jobs[j]);
    std::vector<std::string> args;
    for (std::string word; words >> word;) args.push_back(word);
    ddm::engine::PlanCache::instance().clear();  // a fresh process starts cold
    const std::string pass = "job" + std::to_string(j);
    recorder.dump_metrics(pass, "before");
    const std::int64_t start = recorder.now();
    recorder.span("job", 0, static_cast<std::int64_t>(j), [&](std::uint64_t root) {
      replay_job(recorder, args, root, static_cast<std::int64_t>(j));
    });
    recorder.pass(pass, 1, recorder.now() - start);
    recorder.dump_metrics(pass, "after");
  }
  recorder.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: perfbench_trace serve|sweep --flags");
    const std::string mode = argv[1];
    const auto flags = parse_flags(argc, argv, 2);
    if (mode == "serve") return run_serve(flags);
    if (mode == "sweep") return run_sweep(flags);
    throw std::invalid_argument("unknown mode '" + mode + "'");
  } catch (const std::exception& error) {
    std::cerr << "perfbench_trace: " << error.what() << "\n";
    return 1;
  }
}
