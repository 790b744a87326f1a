// Shared plumbing of the repository benchmark: the metric catalogue, the
// per-run result (metrics plus attempted/failed counts), the in-memory span
// trace, order statistics, and seed-derived inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

[[nodiscard]] inline double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) noexcept {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// SplitMix64 finaliser over a pair: derives independent sub-seeds from the
/// workload seed, so every input is a pure function of (seed, index).
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t index) noexcept;

/// Order statistics over a copy of the sample; 0 for an empty sample.
/// quantile() interpolates linearly between closest ranks (q in [0, 1]).
[[nodiscard]] double quantile(std::vector<double> sample, double q);
[[nodiscard]] inline double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& sample);
[[nodiscard]] double mean(const std::vector<double>& sample);

enum class Kind { kEndToEnd, kPerLayer };

/// One catalogued metric. Every name a workload reports must be listed in
/// catalogue(); BENCHMARK.json and README.md name the same set.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  Kind kind;
};
[[nodiscard]] const std::vector<MetricSpec>& catalogue();

/// What one invocation measured and checked.
class Results {
 public:
  /// Records a catalogued metric (aborts on an unknown name: a typo must
  /// not silently drop a metric). A second set() of a name overwrites.
  void set(std::string_view name, double value);
  /// Counts one checked operation; a false `ok` is a failure described by
  /// `what` (the first few descriptions are printed).
  void check(bool ok, std::string_view what);
  /// A failure that is not tied to one operation (setup, audit, a missing
  /// metric); counts as one attempted and one failed.
  void fail(std::string_view what);
  /// Folds in counts checked elsewhere (another thread's operations).
  void add(std::int64_t attempted, std::int64_t failed, std::string_view what);

  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::map<std::string, double, std::less<>>& values() const noexcept {
    return values_;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept { return failures_; }

 private:
  std::map<std::string, double, std::less<>> values_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// One timed call into a layer. `key` groups spans of one request or
/// execution (request id, instance index); `parent` is the enclosing span's
/// id, 0 at the top.
struct Span {
  const char* name = "";  ///< static storage: spans are written at the end
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t key = 0;
};

/// Spans recorded by one thread. Not thread-safe: each recording thread
/// takes its own log from Trace::log().
class SpanLog {
 public:
  SpanLog(std::string thread, std::uint64_t id_base)
      : thread_(std::move(thread)), next_id_(id_base) {}

  /// Appends a finished span and returns its id.
  std::uint64_t add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t key = 0, std::uint64_t parent = 0);

  [[nodiscard]] const std::string& thread() const noexcept { return thread_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::string thread_;
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// The traced run's span store: per-thread logs kept in memory, queried for
/// the per-layer metrics, and written out once at the end.
class Trace {
 public:
  /// A fresh log for one recording thread (thread-safe).
  SpanLog& log(std::string thread);

  /// Durations in milliseconds of every span called `name`, across logs.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;

  /// Writes every span as one JSON object per line; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // guards logs_ (the deque itself, not the logs)
  std::deque<SpanLog> logs_;
};

/// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
