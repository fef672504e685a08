// ddm_serve — the resilient evaluation daemon.
//
// Answers newline-delimited JSON requests (threshold / certify / analyze /
// health) over loopback TCP through the engine registry, with per-request
// deadlines, retry-with-backoff, the degradation chain, bounded admission
// with load shedding, and same-instance coalescing onto the batch kernel
// (net/service.hpp). `GET /health` and `GET /metrics` on the same port
// answer plain HTTP for probes and Prometheus scrapes.
//
// Configuration — environment first, flags override, both strictly parsed
// (a malformed value exits 2 naming the knob):
//
//   DDM_SERVE_PORT         --port=N         listen port, 0 = ephemeral  [0]
//   DDM_SERVE_BACKLOG      --backlog=N      listen(2) backlog           [64]
//   DDM_SERVE_QUEUE        --queue=N        admission-queue bound       [64]
//   DDM_SERVE_DEADLINE_MS  --deadline-ms=N  default request deadline,
//                                           0 = none                    [0]
//   DDM_SERVE_WORKERS      --workers=N      evaluation worker threads   [2]
//   DDM_PLAN_STORE         --plan-store=DIR persistent compiled-plan
//                                           store (warm start)          [off]
//   DDM_POLICY             --policy-table=F calibrated engine policy
//                                           table (self-tuning auto)    [off]
//
// Knob edges are deliberate: PORT=0 (ephemeral) and DEADLINE_MS=0 (none)
// are valid sentinels; BACKLOG/QUEUE/WORKERS have a minimum of 1 — a
// zero-capacity queue or zero-worker pool is a misconfiguration, rejected
// with exit 2 naming the knob, never a silently wedged daemon.
//
// `--check-config` validates the configuration (plan store directory
// included) and exits without binding — the hook
// scripts/test_cli_robustness.sh uses to pin the exit-2 contract.
//
// With a plan store configured, the engine's plan cache consults the
// validated on-disk plans before lowering, so a cold-started daemon answers
// its first compiled query without paying the exact-algebra lowering cost
// (engine.store.hits on /metrics; docs/performance.md).
//
// With a policy table configured (`ddm_cli calibrate` output), auto dispatch
// ranks engines by measured cost, and the workers fold every request's
// observed latency back into the table (EWMA), so the daemon
// self-tunes while serving (engine.policy.* on /metrics).
//
// Lifecycle: the daemon PRE-WARMS before announcing readiness — canonical
// small plans are lowered (or loaded from the store) into the plan cache and
// every registered engine answers one tiny dispatch, so the first real
// request never pays lowering/spin-up cost (the 88 ms cold-start outlier
// BENCH_serve.json used to carry). It then prints
// `listening on 127.0.0.1:<port>` on stdout once ready
// (supervisors and the soak harness parse it), serves until SIGTERM/SIGINT,
// then drains: stops accepting, answers queued work, replies `draining` to
// stragglers, and exits 0. Crash tolerance is the absence of state: every
// durable artifact (compiled plans) is a cache rebuilt on demand, so
// kill -9 + restart simply serves again — scripts/run_soak.sh proves it.
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/cost_model.hpp"
#include "engine/plan_cache.hpp"
#include "engine/registry.hpp"
#include "net/ndjson.hpp"
#include "net/server.hpp"
#include "net/service.hpp"
#include "obs/metrics_registry.hpp"
#include "poly/plan_store.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/rational.hpp"
#include "util/status.hpp"

namespace {

struct ServeConfig {
  std::uint16_t port = 0;
  int backlog = 64;
  std::string plan_store;    ///< empty = DDM_PLAN_STORE (or no store at all)
  std::string policy_table;  ///< empty = DDM_POLICY (or the built-in order)
  ddm::net::ServiceConfig service;
};

std::atomic<int> g_listener_fd{-1};
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  // Async-signal-safe drain trigger: flag + one shutdown(2) to unblock the
  // accept loop. Everything else happens on the main thread.
  g_stop.store(true);
  ddm::net::shutdown_listener_fd(g_listener_fd.load());
}

/// One knob: environment first, then a --name=value flag override; both go
/// through the same strict parser, so the error message names whichever
/// source held the malformed text.
std::uint64_t knob(const char* env_name, const char* flag, const std::string* flag_value,
                   std::uint64_t min_value, std::uint64_t max_value, std::uint64_t fallback) {
  std::uint64_t value =
      ddm::util::parse_env_u64(env_name, std::getenv(env_name), min_value, max_value, fallback);
  if (flag_value != nullptr) {
    value = ddm::util::parse_env_u64(flag, flag_value->c_str(), min_value, max_value, fallback);
  }
  return value;
}

ServeConfig parse_config(const std::vector<std::string>& args, bool& check_only) {
  const std::string* port_flag = nullptr;
  const std::string* backlog_flag = nullptr;
  const std::string* queue_flag = nullptr;
  const std::string* deadline_flag = nullptr;
  const std::string* workers_flag = nullptr;
  std::string config_plan_store;
  std::string config_policy_table;
  std::vector<std::string> values;  // stable storage for flag payloads
  values.reserve(args.size());
  for (const std::string& arg : args) {
    const auto take = [&values, &arg](const char* prefix) -> const std::string* {
      const std::size_t len = std::string(prefix).size();
      if (arg.compare(0, len, prefix) != 0) return nullptr;
      values.push_back(arg.substr(len));
      return &values.back();
    };
    if (arg == "--check-config") {
      check_only = true;
    } else if (const std::string* v = take("--port=")) {
      port_flag = v;
    } else if (const std::string* v = take("--backlog=")) {
      backlog_flag = v;
    } else if (const std::string* v = take("--queue=")) {
      queue_flag = v;
    } else if (const std::string* v = take("--deadline-ms=")) {
      deadline_flag = v;
    } else if (const std::string* v = take("--workers=")) {
      workers_flag = v;
    } else if (const std::string* v = take("--plan-store=")) {
      if (v->empty()) {
        throw ddm::Error("ddm_serve: invalid --plan-store '' (expected --plan-store=<dir>)");
      }
      config_plan_store = *v;
    } else if (const std::string* v = take("--policy-table=")) {
      if (v->empty()) {
        throw ddm::Error("ddm_serve: invalid --policy-table '' (expected --policy-table=<file>)");
      }
      config_policy_table = *v;
    } else {
      throw ddm::Error("ddm_serve: unknown argument '" + arg +
                       "' (expected --port= --backlog= --queue= --deadline-ms= --workers= "
                       "--plan-store= --policy-table= --check-config)");
    }
  }
  ServeConfig config;
  config.port = static_cast<std::uint16_t>(
      knob("DDM_SERVE_PORT", "--port", port_flag, 0, 65535, 0));
  config.backlog = static_cast<int>(
      knob("DDM_SERVE_BACKLOG", "--backlog", backlog_flag, 1, 4096, 64));
  config.service.queue_capacity = static_cast<std::size_t>(
      knob("DDM_SERVE_QUEUE", "--queue", queue_flag, 1, 65536, 64));
  config.service.default_deadline = std::chrono::milliseconds(
      knob("DDM_SERVE_DEADLINE_MS", "--deadline-ms", deadline_flag, 0, 3'600'000, 0));
  config.service.workers = static_cast<unsigned>(
      knob("DDM_SERVE_WORKERS", "--workers", workers_flag, 1, 256, 2));
  // Resolve the plan store now so --check-config validates it too: the flag
  // overrides DDM_PLAN_STORE, and either one pointing at a missing directory
  // is a configuration error (exit 2), not a silently cold daemon.
  if (!config_plan_store.empty()) {
    ddm::poly::PlanStore::set_configured(
        ddm::poly::PlanStore::open_directory(config_plan_store, "--plan-store"));
  }
  if (const auto store = ddm::poly::PlanStore::configured()) {
    config.plan_store = store->directory();
  }
  // Same eager treatment for the engine policy table: the flag overrides
  // DDM_POLICY, and either one naming an unloadable table is a configuration
  // error (exit 2 from --check-config too), never a silently static daemon.
  if (!config_policy_table.empty()) {
    ddm::engine::CostModel::set_configured(
        ddm::engine::CostModel::load(config_policy_table, "--policy-table"));
    config.policy_table = config_policy_table;
  } else {
    if (ddm::engine::CostModel::configured() != nullptr) {
      const char* env = std::getenv("DDM_POLICY");
      config.policy_table = env != nullptr ? env : "";
    }
  }
  return config;
}

/// Warms the evaluation path before the daemon announces readiness: the
/// canonical small symmetric plans are lowered (or pulled from the plan
/// store) into the plan cache, and every registered engine answers one tiny
/// dispatch, so the first REAL request pays neither exact-algebra lowering
/// nor pool spin-up — the cold-start outlier BENCH_serve.json used to show
/// as an 88 ms max. Failures are deliberately swallowed: pre-warm is an
/// optimization, and an engine that cannot answer the probe (or a plan that
/// cannot lower) will report its real error on a real request.
void prewarm() {
  // Under fault injection (a test-only mode), pre-warm would consume the
  // deterministic strike budget before any client connects, silently turning
  // the fault matrix into a fault-free run. The injected faults belong to
  // the serving path — skip pre-warm and start cold.
  const char* fault_plan = std::getenv("DDM_FAULT_PLAN");
  if ((fault_plan != nullptr && *fault_plan != '\0') || ddm::util::fault::active()) {
    std::cerr << "ddm_serve: fault plan active, skipping pre-warm\n";
    return;
  }
  // With a plan store configured, warm exactly what the store can serve:
  // each listed plan comes in through the cache's validated store path, so a
  // warm start stays lowering-free (the plan_store_check contract —
  // compiled.lowerings == 0 until a request asks for an unshipped plan).
  // Without a store, lower the canonical small symmetric plans directly.
  std::size_t plans = 0;
  bool warmed_probe_plan = false;
  const ddm::util::Rational probe_t(1);
  const std::shared_ptr<ddm::poly::PlanStore> store = ddm::poly::PlanStore::configured();
  if (store != nullptr) {
    for (const std::string& path : store->list_paths()) {
      try {
        const ddm::poly::LoadedPlan loaded = store->load_path(path);
        const ddm::util::Rational t = ddm::util::Rational::parse(loaded.t);
        (void)ddm::engine::PlanCache::instance().get_or_lower(loaded.n, t);
        ++plans;
        if (loaded.n == 3 && t == probe_t) warmed_probe_plan = true;
      } catch (const std::exception&) {
      }
    }
  } else {
    for (std::uint32_t n = 1; n <= 8; ++n) {
      try {
        (void)ddm::engine::PlanCache::instance().get_or_lower(n, ddm::util::Rational(n, 3));
        ++plans;
        if (n == 3) warmed_probe_plan = true;
      } catch (const std::exception&) {
      }
    }
  }
  std::size_t engines = 0;
  const ddm::engine::Registry& registry = ddm::engine::Registry::instance();
  for (const std::string_view id : registry.ids()) {
    // The compiled probe would lower its (3, 1) plan if nothing warmed it —
    // under a store that ships other instances, that would break the
    // lowering-free warm start for no benefit (compiled dispatch on a cached
    // plan is nanoseconds; the pool spin-up comes from the other probes).
    if (id == "compiled" && !warmed_probe_plan) continue;
    ddm::engine::EvalRequest request;
    request.n = 3;
    request.t = probe_t;
    request.betas = {0.5};
    request.trials = 1000;  // keep the mc probe cheap
    try {
      const ddm::engine::Evaluator& evaluator = registry.require(id);
      if (!evaluator.supports(request)) continue;
      (void)evaluator.evaluate(request);
      ++engines;
    } catch (const std::exception&) {
    }
  }
  std::cerr << "ddm_serve: pre-warmed " << plans << " plans, " << engines << " engines\n";
}

/// Minimal HTTP answer for probe/scrape paths on the NDJSON port.
void serve_http(ddm::net::Connection& connection, const std::string& request_line,
                ddm::net::EvalService& service) {
  std::string body;
  std::string content_type = "application/json";
  std::string status = "200 OK";
  if (request_line.compare(0, 12, "GET /health ") == 0 || request_line == "GET /health") {
    body = service.handle_line(R"({"op":"health"})") + "\n";
  } else if (request_line.compare(0, 13, "GET /metrics ") == 0 || request_line == "GET /metrics") {
    std::ostringstream prom;
    ddm::obs::Registry::instance().write_prometheus(prom);
    body = prom.str();
    content_type = "text/plain; version=0.0.4";
  } else {
    status = "404 Not Found";
    body = "not found\n";
    content_type = "text/plain";
  }
  std::ostringstream response;
  response << "HTTP/1.1 " << status << "\r\nContent-Type: " << content_type
           << "\r\nContent-Length: " << body.size() << "\r\nConnection: close\r\n\r\n"
           << body;
  (void)connection.write_all(response.str());
}

void serve_connection(const std::shared_ptr<ddm::net::Connection>& connection,
                      ddm::net::EvalService& service) {
  // Generous per-read timeout: idle keep-alive connections are fine, but a
  // dead peer releases the thread within a minute.
  connection->set_timeout(std::chrono::milliseconds(60'000));
  std::string line;
  while (connection->read_line(line)) {
    if (line.empty()) continue;
    if (line.compare(0, 4, "GET ") == 0) {
      serve_http(*connection, line, service);
      return;  // Connection: close semantics for the HTTP surface
    }
    if (!connection->write_all(service.handle_line(line) + "\n")) return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  ServeConfig config;
  bool check_only = false;
  try {
    config = parse_config(args, check_only);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
  if (check_only) {
    std::cout << "config ok: port=" << config.port
              << " queue=" << config.service.queue_capacity
              << " workers=" << config.service.workers << " backlog=" << config.backlog
              << " deadline_ms=" << config.service.default_deadline.count() << " plan_store="
              << (config.plan_store.empty() ? "<none>" : config.plan_store) << " policy_table="
              << (config.policy_table.empty() ? "<none>" : config.policy_table) << "\n";
    return 0;
  }

  // The daemon always exports metrics — /metrics is part of its contract.
  ddm::obs::set_metrics_enabled(true);

  try {
    ddm::net::TcpListener listener(config.port, config.backlog);
    g_listener_fd.store(listener.fd());
    struct sigaction action{};
    action.sa_handler = handle_stop_signal;
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
    signal(SIGPIPE, SIG_IGN);

    ddm::net::EvalService service(config.service);
    if (!config.plan_store.empty()) {
      std::cerr << "ddm_serve: plan store '" << config.plan_store << "' (warm start)\n";
    }
    if (!config.policy_table.empty()) {
      std::cerr << "ddm_serve: policy table '" << config.policy_table
                << "' (self-tuning dispatch)\n";
    }
    prewarm();
    std::cout << "listening on 127.0.0.1:" << listener.port() << std::endl;

    std::mutex connections_mutex;
    std::vector<std::thread> connection_threads;
    std::vector<std::weak_ptr<ddm::net::Connection>> live;  // drain kicks
    while (!g_stop.load()) {
      const int fd = listener.accept_connection();
      if (fd < 0) break;
      auto connection = std::make_shared<ddm::net::Connection>(fd);
      std::lock_guard<std::mutex> lock(connections_mutex);
      live.push_back(connection);
      connection_threads.emplace_back(
          [connection, &service] { serve_connection(connection, service); });
    }

    // Drain: answer everything already admitted, then exit cleanly. The
    // service rejects late arrivals with a structured `draining` reply, and
    // idle keep-alive connections are kicked loose so join() is prompt.
    std::cerr << "ddm_serve: draining\n";
    service.drain();
    {
      std::lock_guard<std::mutex> lock(connections_mutex);
      for (const auto& weak : live) {
        if (const auto connection = weak.lock()) connection->shutdown_now();
      }
    }
    for (std::thread& thread : connection_threads) {
      if (thread.joinable()) thread.join();
    }
    std::cerr << "ddm_serve: drained, exiting\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
