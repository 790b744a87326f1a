#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, sample.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sample[lo] + (sample[hi] - sample[lo]) * frac;
}

double sum(const std::vector<double>& sample) {
  double total = 0.0;
  for (double v : sample) total += v;
  return total;
}

double mean(const std::vector<double>& sample) {
  return sample.empty() ? 0.0 : sum(sample) / static_cast<double>(sample.size());
}

const std::vector<MetricSpec>& catalogue() {
  static const std::vector<MetricSpec> specs = {
      // End to end: what a caller of the library or a client of lft_serve sees.
      {"setup_s", "s", Kind::kEndToEnd},
      {"exec_per_s", "1/s", Kind::kEndToEnd},
      {"req_per_s", "1/s", Kind::kEndToEnd},
      {"ack_p50_ms", "ms", Kind::kEndToEnd},
      {"rounds_per_exec", "rounds", Kind::kEndToEnd},
      {"msgs_per_node", "msgs/n", Kind::kEndToEnd},
      {"bits_per_node", "bits/n", Kind::kEndToEnd},
      {"peak_rss_mb", "MiB", Kind::kEndToEnd},
      // Per layer: the traced run.
      {"sim.exec_ms", "ms", Kind::kPerLayer},
      {"core.step_ms", "ms", Kind::kPerLayer},
      {"sim.plane_ms", "ms", Kind::kPerLayer},
      {"sim.msg_per_s", "1/s", Kind::kPerLayer},
      {"sim.ns_per_node_round", "ns", Kind::kPerLayer},
      {"sim.delivered_frac", "ratio", Kind::kPerLayer},
      {"singleport.exec_ms", "ms", Kind::kPerLayer},
      {"singleport.ns_per_node_round", "ns", Kind::kPerLayer},
      {"graph.overlay_build_ms", "ms", Kind::kPerLayer},
      {"byzantine.config_build_ms", "ms", Kind::kPerLayer},
      {"scenarios.instance_ms.few_crashes", "ms", Kind::kPerLayer},
      {"scenarios.instance_ms.many_crashes", "ms", Kind::kPerLayer},
      {"scenarios.instance_ms.gossip", "ms", Kind::kPerLayer},
      {"scenarios.instance_ms.checkpointing", "ms", Kind::kPerLayer},
      {"scenarios.instance_ms.ab_consensus", "ms", Kind::kPerLayer},
      {"scenarios.instance_ms.min_flood", "ms", Kind::kPerLayer},
      {"fleet.busy_frac", "ratio", Kind::kPerLayer},
      {"fleet.queue_wait_p50_ms", "ms", Kind::kPerLayer},
      {"fleet.queue_wait_p99_ms", "ms", Kind::kPerLayer},
      {"fleet.tail_ms", "ms", Kind::kPerLayer},
      {"fleet.steals", "count", Kind::kPerLayer},
      {"fleet.scratch_recycle_frac", "ratio", Kind::kPerLayer},
      {"client.flush_us", "us", Kind::kPerLayer},
      {"client.recv_wait_us", "us", Kind::kPerLayer},
      {"client.ack_p99_ms", "ms", Kind::kPerLayer},
      {"service.cmds_per_slot", "cmds", Kind::kPerLayer},
      {"service.pump_enqueue_share", "ratio", Kind::kPerLayer},
      {"service.pump_step_share", "ratio", Kind::kPerLayer},
      {"service.pump_retire_share", "ratio", Kind::kPerLayer},
      {"service.pump_flush_share", "ratio", Kind::kPerLayer},
      {"net.reactor_wait_share", "ratio", Kind::kPerLayer},
      {"net.reactor_batch_mean", "count", Kind::kPerLayer},
      {"ordering.step_us", "us", Kind::kPerLayer},
      {"ordering.take_head_us", "us", Kind::kPerLayer},
      {"ordering.cmds_per_s", "1/s", Kind::kPerLayer},
      {"ordering.msgs_per_cmd", "msgs", Kind::kPerLayer},
      {"trace.slowdown", "ratio", Kind::kPerLayer},
  };
  return specs;
}

void Results::set(std::string_view name, double value) {
  const auto& specs = catalogue();
  const bool known = std::any_of(specs.begin(), specs.end(),
                                 [&](const MetricSpec& s) { return s.name == name; });
  if (!known) {
    std::fprintf(stderr, "perfbench: metric '%.*s' is not in the catalogue\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }
  values_.insert_or_assign(std::string(name), value);
}

void Results::check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 16) failures_.emplace_back(what);
}

void Results::fail(std::string_view what) { check(false, what); }

void Results::add(std::int64_t attempted, std::int64_t failed, std::string_view what) {
  attempted_ += attempted;
  if (failed == 0) return;
  failed_ += failed;
  if (failures_.size() < 16) failures_.emplace_back(what);
}

std::uint64_t SpanLog::add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                           std::uint64_t key, std::uint64_t parent) {
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, key});
  return id;
}

SpanLog& Trace::log(std::string thread) {
  std::lock_guard<std::mutex> lock(mu_);
  // Ids are unique across logs: each log owns a 2^40-wide id range.
  const std::uint64_t base = (static_cast<std::uint64_t>(logs_.size()) + 1) << 40;
  return logs_.emplace_back(std::move(thread), base);
}

std::vector<double> Trace::durations_ms(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& log : logs_) {
    for (const auto& span : log.spans()) {
      if (name == span.name) out.push_back(ms_between(span.start_ns, span.end_ns));
    }
  }
  return out;
}

bool Trace::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const auto& log : logs_) {
    for (const auto& s : log.spans()) {
      out << "{\"name\":\"" << s.name << "\",\"thread\":\"" << log.thread()
          << "\",\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"key\":" << s.key
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
