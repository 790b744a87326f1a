// The four benchmark workloads and the serial-execution loop two of them
// share. Each workload runs in up to three phases, chosen by its Plan:
//   set-up    cold starts (overlay cache cleared, fresh server), timed;
//   untraced  the end-to-end measurement, tracing off, warm caches;
//   traced    spans around every library call, for the per-layer metrics.
// Every execution's invariant is checked in every phase, and every repeat of
// an execution (across cycles and across phases) must reproduce the first
// one's fingerprint — including traced against untraced.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "harness.hpp"
#include "sim/engine.hpp"

namespace perfbench {

struct Plan {
  std::uint64_t seed = 1;
  bool smoke = false;    ///< tiny sizes, for the benchmark's own tests
  int setup_reps = 0;    ///< cold set-ups to time (service: per round)
  double untraced_s = 0; ///< untraced measuring time (end-to-end metrics)
  double traced_s = 0;   ///< traced measuring time (per-layer metrics)
};

/// Work one unit of a phase (a cycle, a batch, an epoch) completed and the
/// seconds it took.
struct Amount {
  double work = 0;
  double seconds = 0;
};

/// Throughput of the untraced and traced phases; 0 for a phase not run.
struct Rates {
  double untraced = 0;
  double traced = 0;
};

/// The measuring loop every workload shares: for each phase its Plan asks
/// for, runs `unit(traced)` until the phase's time is used (at least once)
/// and takes the rate as total work over total time — a whole-phase total,
/// not a median of short samples, so the machine's speed phases average
/// out. Reads peak_rss_mb after the first untraced unit (set-up plus one
/// full pass over the inputs; later growth is memory the allocator keeps,
/// which depends on how many passes fit in the run) and sets
/// trace.slowdown when both phases ran.
template <class Unit>
Rates run_phases(const Plan& plan, Results& out, Unit&& unit) {
  auto phase = [&](double seconds, bool traced) {
    Amount total;
    bool first = true;
    const auto start = now_ns();
    do {
      const Amount amount = unit(traced);
      total.work += amount.work;
      total.seconds += amount.seconds;
      if (!traced && first) out.set("peak_rss_mb", peak_rss_mb());
      first = false;
    } while (static_cast<double>(now_ns() - start) / 1e9 < seconds);
    return total.work / total.seconds;
  };
  Rates rates;
  if (plan.untraced_s > 0) rates.untraced = phase(plan.untraced_s, false);
  if (plan.traced_s > 0) rates.traced = phase(plan.traced_s, true);
  if (rates.untraced > 0 && rates.traced > 0) {
    out.set("trace.slowdown", rates.untraced / rates.traced);
  }
  return rates;
}

void crash_consensus(const Plan& plan, Results& out, Trace& trace);
void single_port(const Plan& plan, Results& out, Trace& trace);
void fleet_catalogue(const Plan& plan, Results& out, Trace& trace);
void service_closed_loop(const Plan& plan, Results& out, Trace& trace);

// ---- serial executions (crash_consensus, single_port) ---------------------

/// One execution of a serial workload.
struct Exec {
  lft::sim::Report report;
  bool ok = false;        ///< the protocol's stated invariant held
  double total_ms = 0;    ///< adversary construction + call + invariant check
  // Engine telemetry, traced phase only (the call itself is a span).
  double step_ms = 0;           ///< engine step time
  std::uint64_t sent = 0;       ///< messages sent
  std::uint64_t delivered = 0;  ///< messages delivered
};

struct SerialWorkload {
  const char* name = "";
  lft::NodeId n = 0;
  int cycle = 1;  ///< instances per cycle; every cycle runs all of them
  /// Instances executed from a cold overlay cache in each set-up.
  std::vector<int> setup_instances;
  /// Runs instance `index`; `log` is non-null in the traced phase.
  std::function<Exec(int index, SpanLog* log)> execute;
};

struct SerialRun {
  std::vector<double> setup_ms;  ///< one per set-up repetition
  std::vector<Exec> untraced;
  std::vector<Exec> traced;
  /// Median warm total_ms of each set-up instance (untraced phase when it
  /// ran, else traced) — the warm side of graph.overlay_build_ms.
  double warm_setup_ms = 0;
};

/// Runs set-up, then whole cycles per phase (run_phases), checking
/// invariants and fingerprints. Sets setup_s, exec_per_s,
/// req_per_s, ack_p50_ms, rounds_per_exec, msgs_per_node, bits_per_node,
/// peak_rss_mb and (both phases run) trace.slowdown.
SerialRun run_serial(const Plan& plan, Results& out, Trace& trace,
                     const SerialWorkload& workload);

/// Remembers the first fingerprint seen per key and checks every later one
/// against it.
class FingerprintGate {
 public:
  void observe(std::uint64_t key, std::uint64_t fingerprint, Results& out, const char* what);

 private:
  std::map<std::uint64_t, std::uint64_t> seen_;
};

}  // namespace perfbench
