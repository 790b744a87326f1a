// crash_consensus: serial sim::Engine executions of Few-Crashes-Consensus
// and Many-Crashes-Consensus, alternating, at n = 4096 and t = n/8 under
// random crash schedules, engine threads = 1. The engine's message plane and
// round loop with no bodies, crypto or network, on a working set larger
// than L2.
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "core/consensus.hpp"
#include "obs/obs.hpp"
#include "sim/faults.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lft::NodeId;

struct Instance {
  bool many = false;
  std::vector<int> inputs;
  std::vector<lft::sim::CrashEvent> crashes;
  std::uint64_t coin_seed = 0;
};

std::vector<Instance> make_instances(NodeId n, std::int64_t t, int count, std::uint64_t seed) {
  std::vector<Instance> out(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    auto& inst = out[static_cast<std::size_t>(i)];
    inst.many = (i % 2) == 1;
    lft::Rng rng(mix(seed, static_cast<std::uint64_t>(3 * i)));
    inst.inputs.resize(static_cast<std::size_t>(n));
    for (int& b : inst.inputs) b = static_cast<int>(rng.uniform(2));
    inst.crashes = lft::sim::random_crash_schedule(
        n, t, 0, 5 * t, 0.0, mix(seed, static_cast<std::uint64_t>(3 * i + 1)));
    inst.coin_seed = mix(seed, static_cast<std::uint64_t>(3 * i + 2));
  }
  return out;
}

}  // namespace

void crash_consensus(const Plan& plan, Results& out, Trace& trace) {
  const NodeId n = plan.smoke ? 256 : 4096;
  const std::int64_t t = n / 8;
  const int cycle = plan.smoke ? 2 : 8;
  const auto params = lft::core::ConsensusParams::practical(n, t);
  const auto instances = make_instances(n, t, cycle, plan.seed);

  // Engine telemetry is attached in the traced phase only; its step-time
  // histogram splits sim.exec_ms into protocol logic and the message plane.
  lft::obs::Registry registry;
  auto& step_ns = registry.histogram("lft_engine_step_ns");
  auto& sent = registry.counter("lft_engine_sent_total");
  auto& delivered = registry.counter("lft_engine_delivered_total");

  SerialWorkload workload;
  workload.name = "crash_consensus";
  workload.n = n;
  workload.cycle = cycle;
  workload.setup_instances = {0, 1};  // one Few- and one Many-Crashes shape
  workload.execute = [&](int index, SpanLog* log) {
    const Instance& inst = instances[static_cast<std::size_t>(index)];
    lft::core::RunOptions options;
    if (log != nullptr) {
      registry.reset_values();
      options.telemetry = &registry;
    }
    const auto factory = [&](NodeId v) -> std::unique_ptr<lft::sim::Process> {
      const int input = inst.inputs[static_cast<std::size_t>(v)];
      if (inst.many) return lft::core::make_many_crashes_process(params, v, input);
      return lft::core::make_few_crashes_process(params, v, input);
    };
    Exec ex;
    const auto start = now_ns();
    auto adversary = lft::sim::make_scheduled(inst.crashes, inst.coin_seed);
    const auto call_start = now_ns();
    auto report = lft::core::run_system(n, t, factory, std::move(adversary), options);
    const auto call_end = now_ns();
    auto outcome = lft::core::evaluate_consensus(std::move(report), inst.inputs);
    const auto end = now_ns();
    ex.ok = outcome.all_good();
    ex.report = std::move(outcome.report);
    ex.total_ms = ms_between(start, end);
    if (log != nullptr) {
      const auto key = static_cast<std::uint64_t>(index);
      const auto parent = log->add(inst.many ? "crash_consensus.many" : "crash_consensus.few",
                                   start, end, key);
      log->add("sim.run_system", call_start, call_end, key, parent);
      ex.step_ms = static_cast<double>(step_ns.sum()) / 1e6;
      ex.sent = sent.value();
      ex.delivered = delivered.value();
    }
    return ex;
  };

  const SerialRun run = run_serial(plan, out, trace, workload);
  if (!run.setup_ms.empty() && (!run.untraced.empty() || !run.traced.empty())) {
    out.set("graph.overlay_build_ms", median(run.setup_ms) - run.warm_setup_ms);
  }
  if (run.traced.empty()) return;
  // Call times come from the spans; rates are totals over the traced phase.
  const std::vector<double> exec_ms = trace.durations_ms("sim.run_system");
  const double exec_total_ms = sum(exec_ms);
  std::vector<double> step_ms;
  double messages = 0;
  double node_rounds = 0;
  double sent_total = 0;
  double delivered_total = 0;
  for (const Exec& ex : run.traced) {
    step_ms.push_back(ex.step_ms);
    messages += static_cast<double>(ex.report.metrics.messages_total);
    node_rounds += static_cast<double>(ex.report.rounds) * n;
    sent_total += static_cast<double>(ex.sent);
    delivered_total += static_cast<double>(ex.delivered);
  }
  out.set("sim.exec_ms", median(exec_ms));
  out.set("core.step_ms", median(step_ms));
  out.set("sim.plane_ms", median(exec_ms) - median(step_ms));
  out.set("sim.msg_per_s", messages / (exec_total_ms / 1e3));
  out.set("sim.ns_per_node_round", exec_total_ms * 1e6 / node_rounds);
  out.set("sim.delivered_frac", sent_total > 0 ? delivered_total / sent_total : 0.0);
}

}  // namespace perfbench
