// fleet_catalogue: every registered scenario at its default size, over
// several seeds, submitted as one batch to a 4-worker sim::FleetRunner; the
// benchmark stamps submit, start and end of every job. Covers the fleet's
// scheduling and scratch reuse and every fault class (delay queue,
// omissions, partitions), gossip and checkpointing bodies and AB-Consensus
// crypto, all at cache-resident sizes.
#include <algorithm>
#include <map>
#include <string>

#include "byzantine/ab_consensus.hpp"
#include "graph/overlay.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/fleet.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lft::scenarios::Scenario;

constexpr int kWorkers = 4;

struct Item {
  const Scenario* scenario = nullptr;
  std::uint64_t seed = 0;
  const char* span = "";  ///< the traced job's span name, per protocol
};

/// What one job reports back; written by the worker, read after wait_all.
struct Job {
  std::uint64_t submit_ns = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  bool ok = false;
  std::uint64_t fingerprint = 0;
  lft::sim::Metrics metrics;
  lft::Round rounds = 0;
};

struct Batch {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<Job> jobs;
};

Batch run_batch(lft::sim::FleetRunner& fleet, const std::vector<Item>& items) {
  Batch batch;
  batch.jobs.resize(items.size());
  batch.start_ns = now_ns();
  for (std::size_t i = 0; i < items.size(); ++i) {
    Job* job = &batch.jobs[i];
    const Item item = items[i];
    job->submit_ns = now_ns();
    (void)fleet.submit(lft::sim::FleetJob([job, item](lft::sim::EngineScratch* scratch) {
      job->start_ns = now_ns();
      lft::core::RunOptions options;
      options.scratch = scratch;
      auto result = item.scenario->run_at(item.seed, item.scenario->n, item.scenario->t,
                                          options);
      job->end_ns = now_ns();
      job->ok = result.ok;
      job->fingerprint = lft::scenarios::fingerprint(result.report);
      job->metrics = result.report.metrics;
      job->rounds = result.report.rounds;
      return std::move(result.report);
    }));
  }
  fleet.wait_all();
  batch.end_ns = now_ns();
  return batch;
}

}  // namespace

void fleet_catalogue(const Plan& plan, Results& out, Trace& trace) {
  const auto& scenarios = lft::scenarios::all_scenarios();
  const int seeds = plan.smoke ? 1 : 4;
  // Span name per protocol. Static: spans keep the name's pointer and are
  // written after this call returns.
  static const auto spans = [&scenarios] {
    std::map<std::string, std::string> names;
    for (const Scenario& scenario : scenarios) {
      names.emplace(scenario.protocol, "scenarios.run_at." + scenario.protocol);
    }
    return names;
  }();
  std::vector<Item> items;
  for (int s = 0; s < seeds; ++s) {
    const std::uint64_t seed = mix(plan.seed ^ 0xf1ee7, static_cast<std::uint64_t>(s));
    for (const Scenario& scenario : scenarios) {
      items.push_back({&scenario, seed, spans.at(scenario.protocol).c_str()});
    }
  }
  const std::vector<Item> shapes(items.begin(),
                                 items.begin() + static_cast<std::ptrdiff_t>(scenarios.size()));

  FingerprintGate gate;
  auto check_batch = [&](const Batch& batch) {
    for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
      const Job& job = batch.jobs[i];
      out.check(job.ok, "fleet_catalogue: scenario invariant failed: " +
                            items[i].scenario->name);
      gate.observe(i, job.fingerprint, out, "fleet_catalogue");
    }
  };

  // Set-up: what a one-shot CLI run pays — a fresh pool and one execution
  // of every scenario shape from a cold overlay cache.
  std::vector<double> setup_ms;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    lft::graph::clear_overlay_cache();
    const auto start = now_ns();
    lft::sim::FleetRunner fleet(lft::sim::FleetConfig{kWorkers, true, false});
    check_batch(run_batch(fleet, shapes));
    setup_ms.push_back(ms_between(start, now_ns()));
  }
  if (plan.setup_reps > 0) out.set("setup_s", median(setup_ms) / 1e3);

  lft::sim::FleetRunner fleet(lft::sim::FleetConfig{kWorkers, true, false});
  SpanLog* log = plan.traced_s > 0 ? &trace.log("fleet_catalogue") : nullptr;
  std::vector<Batch> untraced;
  std::vector<double> busy;    // traced batches
  std::vector<double> tail;
  std::vector<double> steals;
  // A unit is one batch; the rate is instances per second of batch time.
  const Rates rates = run_phases(plan, out, [&](bool traced) {
    const auto stolen_before = fleet.stolen();
    Batch batch = run_batch(fleet, items);
    check_batch(batch);
    const Amount amount{static_cast<double>(batch.jobs.size()),
                        ms_between(batch.start_ns, batch.end_ns) / 1e3};
    if (!traced) {
      untraced.push_back(std::move(batch));
      return amount;
    }
    const auto parent = log->add("fleet.batch", batch.start_ns, batch.end_ns);
    double busy_ms = 0;
    std::uint64_t last_start = batch.start_ns;
    for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
      const Job& job = batch.jobs[i];
      log->add("fleet.queue_wait", job.submit_ns, job.start_ns, i, parent);
      log->add(items[i].span, job.start_ns, job.end_ns, i, parent);
      busy_ms += ms_between(job.start_ns, job.end_ns);
      last_start = std::max(last_start, job.start_ns);
    }
    busy.push_back(busy_ms / (kWorkers * ms_between(batch.start_ns, batch.end_ns)));
    tail.push_back(ms_between(last_start, batch.end_ns));
    steals.push_back(static_cast<double>(fleet.stolen() - stolen_before));
    return amount;
  });

  if (!untraced.empty()) {
    std::vector<double> batch_p50_ms;  // submit to job end, per batch
    for (const Batch& b : untraced) {
      std::vector<double> latency_ms;
      for (const Job& job : b.jobs) latency_ms.push_back(ms_between(job.submit_ns, job.end_ns));
      batch_p50_ms.push_back(median(std::move(latency_ms)));
    }
    std::vector<double> rounds;
    std::vector<double> msgs;
    std::vector<double> bits;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Job& job = untraced.front().jobs[i];
      const double n = items[i].scenario->n;
      rounds.push_back(static_cast<double>(job.rounds));
      msgs.push_back(static_cast<double>(job.metrics.messages_total) / n);
      bits.push_back(static_cast<double>(job.metrics.bits_total) / n);
    }
    // One submitted job is one request: req_per_s is the instance rate and
    // ack_p50_ms each batch's p50 submit-to-result latency, averaged over
    // batches (a median over batches would jump with the machine's speed
    // phases).
    out.set("exec_per_s", rates.untraced);
    out.set("req_per_s", rates.untraced);
    out.set("ack_p50_ms", mean(batch_p50_ms));
    out.set("rounds_per_exec", mean(rounds));
    out.set("msgs_per_node", mean(msgs));
    out.set("bits_per_node", mean(bits));
  }
  if (log == nullptr) return;

  for (const auto& [protocol, span] : spans) {
    out.set("scenarios.instance_ms." + protocol, median(trace.durations_ms(span)));
  }
  const std::vector<double> queue_wait = trace.durations_ms("fleet.queue_wait");
  out.set("fleet.busy_frac", median(busy));
  out.set("fleet.queue_wait_p50_ms", quantile(queue_wait, 0.5));
  out.set("fleet.queue_wait_p99_ms", quantile(queue_wait, 0.99));
  out.set("fleet.tail_ms", median(tail));
  out.set("fleet.steals", mean(steals));
  out.set("fleet.scratch_recycle_frac", static_cast<double>(fleet.scratch_recycles()) /
                                            static_cast<double>(fleet.scratch_adoptions()));

  // AB-Consensus configuration (key registry + spread overlay) at the
  // catalogue's Byzantine shape, built from a cold overlay cache as a
  // one-shot run builds it. Runs last: it leaves the cache cold.
  const auto ab = std::find_if(scenarios.begin(), scenarios.end(),
                               [](const Scenario& s) { return s.protocol == "ab_consensus"; });
  if (ab != scenarios.end()) {
    const auto params = lft::byzantine::AbParams::practical(ab->n, ab->t);
    for (int rep = 0; rep < 5; ++rep) {
      lft::graph::clear_overlay_cache();
      const auto start = now_ns();
      const auto config = lft::byzantine::AbConfig::build(params);
      const auto end = now_ns();
      out.check(config != nullptr && config->spread_h != nullptr,
                "fleet_catalogue: AbConfig::build failed");
      log->add("byzantine.config_build", start, end, static_cast<std::uint64_t>(rep));
    }
    out.set("byzantine.config_build_ms", median(trace.durations_ms("byzantine.config_build")));
  }
}

}  // namespace perfbench
