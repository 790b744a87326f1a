// single_port: serial single-port Linear-Consensus (Theorem 12) at n = 1024
// and t = n/16 under random crash schedules. The only workload on
// sim::SinglePortEngine, whose round loop is round-bound (thousands of
// sp-rounds with few messages each).
#include <memory>

#include "common/rng.hpp"
#include "singleport/linear_consensus.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lft::NodeId;

struct Instance {
  std::vector<int> inputs;
  std::vector<lft::sim::CrashEvent> crashes;
};

}  // namespace

void single_port(const Plan& plan, Results& out, Trace& trace) {
  const NodeId n = plan.smoke ? 128 : 1024;
  const std::int64_t t = n / 16;
  const int cycle = plan.smoke ? 1 : 3;
  const auto params = lft::core::ConsensusParams::single_port(n, t);
  std::vector<Instance> instances(static_cast<std::size_t>(cycle));
  for (int i = 0; i < cycle; ++i) {
    auto& inst = instances[static_cast<std::size_t>(i)];
    lft::Rng rng(mix(plan.seed ^ 0x5350, static_cast<std::uint64_t>(2 * i)));
    inst.inputs.resize(static_cast<std::size_t>(n));
    for (int& b : inst.inputs) b = static_cast<int>(rng.uniform(2));
    inst.crashes = lft::sim::random_crash_schedule(
        n, t, 0, 40 * t, 0.0, mix(plan.seed ^ 0x5350, static_cast<std::uint64_t>(2 * i + 1)));
  }

  SerialWorkload workload;
  workload.name = "single_port";
  workload.n = n;
  workload.cycle = cycle;
  workload.setup_instances = {0};
  workload.execute = [&](int index, SpanLog* log) {
    const Instance& inst = instances[static_cast<std::size_t>(index)];
    Exec ex;
    const auto start = now_ns();
    auto adversary = std::make_unique<lft::singleport::ScheduledSpAdversary>(inst.crashes);
    const auto call_start = now_ns();
    auto outcome =
        lft::singleport::run_linear_consensus(params, inst.inputs, std::move(adversary));
    const auto end = now_ns();
    ex.ok = outcome.all_good();
    ex.report = std::move(outcome.report);
    ex.total_ms = ms_between(start, end);
    if (log != nullptr) {
      log->add("singleport.run_linear_consensus", call_start, end,
               static_cast<std::uint64_t>(index));
    }
    return ex;
  };

  const SerialRun run = run_serial(plan, out, trace, workload);
  if (run.traced.empty()) return;
  const std::vector<double> exec_ms = trace.durations_ms("singleport.run_linear_consensus");
  const double exec_total_ms = sum(exec_ms);
  double node_rounds = 0;
  for (const Exec& ex : run.traced) node_rounds += static_cast<double>(ex.report.rounds) * n;
  out.set("singleport.exec_ms", median(exec_ms));
  out.set("singleport.ns_per_node_round", exec_total_ms * 1e6 / node_rounds);
}

}  // namespace perfbench
