#include "engine/resilient.hpp"

#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "engine/registry.hpp"
#include "obs/metrics_registry.hpp"
#include "util/fault.hpp"
#include "obs/trace.hpp"
#include "util/status.hpp"

namespace ddm::engine {

namespace {

struct ResilienceMetrics {
  obs::Counter degraded = obs::counter("engine.degraded");
  obs::Counter retries = obs::counter("engine.retries");
  obs::Counter chain_exhausted = obs::counter("engine.chain_exhausted");

  static const ResilienceMetrics& get() {
    static const ResilienceMetrics metrics;
    return metrics;
  }
};

/// The control an individual attempt runs under. An engine that still has a
/// fallback behind it gets a soft deadline at half the remaining budget, so
/// being cut off leaves time for the chain to answer; the last engine gets
/// the caller's real deadline. Cancellation always passes through verbatim.
[[nodiscard]] util::RunControl attempt_control(const util::RunControl& control,
                                              bool has_fallback) {
  if (!has_fallback || !control.deadline.is_set()) return control;
  util::RunControl soft = control;
  soft.deadline = util::Deadline::after(control.deadline.remaining() / 2);
  return soft;
}

}  // namespace

EvalOutcome evaluate_resilient(const ResilientOptions& options, const EvalRequest& request) {
  const ResilienceMetrics& metrics = ResilienceMetrics::get();
  const std::vector<const Evaluator*> chain = rank(options.policy, request).chain;

  std::string note;
  std::exception_ptr last_error;
  for (std::size_t stage = 0; stage < chain.size(); ++stage) {
    const Evaluator& evaluator = *chain[stage];
    const std::string_view id = evaluator.id();
    const bool has_fallback = stage + 1 < chain.size();

    EvalRequest attempt = request;
    for (unsigned tries = 0;; ++tries) {
      // Poll the REAL control before every attempt: a cancelled request or a
      // spent budget must not start (or re-start) work.
      switch (options.control.should_stop()) {
        case util::StopReason::kNone:
          break;
        case util::StopReason::kCancelled:
          throw Cancelled("engine.resilient", stage, chain.size());
        case util::StopReason::kDeadline:
          throw DeadlineExceeded("engine.resilient", stage, chain.size());
      }
      attempt.control = attempt_control(options.control, has_fallback);
      try {
        // Engine ids are literal-backed (Evaluator::id contract), so .data()
        // is a valid C string for the span attribute.
        DDM_SPAN("engine.attempt",
                 {{"engine", id.data()}, {"stage", static_cast<std::int64_t>(stage)}});
        EvalOutcome outcome = evaluator.evaluate(attempt);
        if (stage > 0) {
          outcome.degraded = true;
          outcome.degradation_note = note + " -> " + std::string(id);
          metrics.degraded.add();
        }
        return outcome;
      } catch (const Cancelled&) {
        throw;  // never serve a cancelled request from a fallback
      } catch (const DeadlineExceeded&) {
        // Real deadline spent: propagate. Soft deadline: fall through to the
        // next engine with the remaining (real) budget.
        if (options.control.should_stop() == util::StopReason::kDeadline) throw;
        last_error = std::current_exception();
        if (!note.empty()) note += " -> ";
        note += std::string(id) + ": deadline pressure";
        break;
      } catch (const ParallelError&) {
        // A chunk exhausted its in-region retries — transient territory, so
        // retry the whole request under the backoff policy before degrading.
        last_error = std::current_exception();
        if (tries >= options.retry.max_retries) {
          if (!note.empty()) note += " -> ";
          note += std::string(id) + ": evaluation failed";
          break;
        }
        metrics.retries.add();
        util::sleep_with_deadline(options.retry.delay_before(tries + 1, stage),
                                  options.control.deadline);
      } catch (const util::fault::TransientFault&) {
        // An injected fault outside any parallel region (e.g. striking plan
        // lowering) — same transient treatment as ParallelError.
        last_error = std::current_exception();
        if (tries >= options.retry.max_retries) {
          if (!note.empty()) note += " -> ";
          note += std::string(id) + ": evaluation failed";
          break;
        }
        metrics.retries.add();
        util::sleep_with_deadline(options.retry.delay_before(tries + 1, stage),
                                  options.control.deadline);
      } catch (const Error&) {
        // Lowering failure, unsupported edge, injected hard fault: move down
        // the chain immediately — repeating a deterministic failure is waste.
        last_error = std::current_exception();
        if (!note.empty()) note += " -> ";
        note += std::string(id) + ": evaluation failed";
        break;
      }
    }
  }
  // rank() never returns an empty chain, and every stage that does not
  // return records its error.
  metrics.chain_exhausted.add();
  std::rethrow_exception(last_error);
}

}  // namespace ddm::engine
