#include <string>

#include "graph/overlay.hpp"
#include "scenarios/scenarios.hpp"
#include "workloads.hpp"

namespace perfbench {

void FingerprintGate::observe(std::uint64_t key, std::uint64_t fingerprint, Results& out,
                              const char* what) {
  const auto [it, fresh] = seen_.emplace(key, fingerprint);
  out.check(fresh || it->second == fingerprint,
            std::string(what) + ": execution " + std::to_string(key) +
                " did not reproduce its first fingerprint");
}

namespace {

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

}  // namespace

SerialRun run_serial(const Plan& plan, Results& out, Trace& trace,
                     const SerialWorkload& workload) {
  SerialRun run;
  FingerprintGate gate;
  auto record = [&](int index, Exec& ex) {
    out.check(ex.ok, std::string(workload.name) + ": invariant failed on instance " +
                         std::to_string(index));
    gate.observe(static_cast<std::uint64_t>(index), lft::scenarios::fingerprint(ex.report),
                 out, workload.name);
    ex.report.nodes = {};  // per-node statuses are fingerprinted; drop them
  };

  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    lft::graph::clear_overlay_cache();
    const auto start = now_ns();
    for (int index : workload.setup_instances) {
      Exec ex = workload.execute(index, nullptr);
      record(index, ex);
    }
    run.setup_ms.push_back(ms_between(start, now_ns()));
  }

  // A unit is one whole cycle, so every phase executes the same instance mix.
  SpanLog* log = plan.traced_s > 0 ? &trace.log(workload.name) : nullptr;
  const Rates rates = run_phases(plan, out, [&](bool traced) {
    std::vector<Exec>& execs = traced ? run.traced : run.untraced;
    const auto start = now_ns();
    for (int index = 0; index < workload.cycle; ++index) {
      Exec ex = workload.execute(index, traced ? log : nullptr);
      record(index, ex);
      execs.push_back(std::move(ex));
    }
    return Amount{static_cast<double>(workload.cycle), seconds_between(start, now_ns())};
  });

  // Latencies (total_ms) of one instance's executions, in order.
  auto latencies = [&](const std::vector<Exec>& execs, int index) {
    std::vector<double> out_ms;
    for (std::size_t i = static_cast<std::size_t>(index); i < execs.size();
         i += static_cast<std::size_t>(workload.cycle)) {
      out_ms.push_back(execs[i].total_ms);
    }
    return out_ms;
  };
  const std::vector<Exec>& warm = run.untraced.empty() ? run.traced : run.untraced;
  for (int index : workload.setup_instances) run.warm_setup_ms += median(latencies(warm, index));

  if (plan.setup_reps > 0) out.set("setup_s", median(run.setup_ms) / 1e3);
  if (!run.untraced.empty()) {
    // The paper's measures: exact for a seed (one cycle, repeats gated).
    std::vector<double> rounds;
    std::vector<double> msgs;
    std::vector<double> bits;
    for (std::size_t i = 0; i < static_cast<std::size_t>(workload.cycle); ++i) {
      const auto& ex = run.untraced[i];
      rounds.push_back(static_cast<double>(ex.report.rounds));
      msgs.push_back(static_cast<double>(ex.report.metrics.messages_total) / workload.n);
      bits.push_back(static_cast<double>(ex.report.metrics.bits_total) / workload.n);
    }
    // One call into the runner is one request here, so req_per_s is the
    // execution rate. ack_p50_ms is the mean over the cycle's instances of
    // each one's mean latency: a pooled p50 would fall in the gap between
    // the Few- and Many-Crashes latency clusters, and a serial execution's
    // latency varies with the machine's speed phases, over which a mean is
    // steadier than a median.
    std::vector<double> instance_ms;
    for (int index = 0; index < workload.cycle; ++index) {
      instance_ms.push_back(mean(latencies(run.untraced, index)));
    }
    out.set("exec_per_s", rates.untraced);
    out.set("req_per_s", rates.untraced);
    out.set("ack_p50_ms", mean(instance_ms));
    out.set("rounds_per_exec", mean(rounds));
    out.set("msgs_per_node", mean(msgs));
    out.set("bits_per_node", mean(bits));
  }
  return run;
}

}  // namespace perfbench
