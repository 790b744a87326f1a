// lft_perfbench: runs one benchmark workload and prints its metrics.
//
//   lft_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--smoke] [--trace-out PATH]
//
// --trace 0 measures the workload with tracing off and prints the
// end-to-end metrics. --trace 1 is the traced run: the named workload runs
// untraced and then traced for half the time each (their ratio is
// trace.slowdown), and every other workload runs a short traced probe, so
// one traced run prints the per-layer metrics of every layer. Spans are kept
// in memory and written to --trace-out at the end. --smoke shrinks every
// size, for the benchmark's own tests.
//
// The last line of standard output is the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is nonzero on any correctness or determinism failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/simd.hpp"
#include "harness.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Workload {
  std::string_view name;
  void (*run)(const Plan&, Results&, Trace&);
  int setup_reps;  ///< cold set-ups timed in an untraced run (per round: service)
};

constexpr Workload kWorkloads[] = {
    {"crash_consensus", crash_consensus, 3},
    {"single_port", single_port, 5},
    {"fleet_catalogue", fleet_catalogue, 5},
    {"service_closed_loop", service_closed_loop, 8},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args.trace = value[0] - '0';
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) == 0 ||
      regs[0] < 0x80000004u) {
    return "unknown";
  }
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                &regs[4 * leaf + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();  // stop at the brand string's terminator
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// JSON string literal for the header's free-text fields.
std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void print_header(const Args& args) {
  // A default server is constructed (not run) only to learn which reactor
  // backend this kernel gives it — the one service_closed_loop serves with.
  const std::string backend = lft::service::Server().backend();
  std::printf(
      "# run {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"smoke\": %s, \"nproc\": %u, \"cpu\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"simd_tier\": %s, \"reactor_backend\": %s}\n",
      quoted(args.workload).c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace, args.smoke ? "true" : "false", std::thread::hardware_concurrency(),
      quoted(cpu_model()).c_str(), quoted(compiler()).c_str(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(),
      quoted(lft::simd::tier_name(lft::simd::default_tier())).c_str(),
      quoted(backend).c_str());
}

/// Runs one workload invocation into `out`.
void run_one(const Args& args, const Workload& workload, Results& out, Trace& trace) {
  if (args.trace == 0) {
    workload.run(Plan{args.seed, args.smoke, workload.setup_reps, args.seconds, 0}, out, trace);
    return;
  }
  // Traced run: the named workload untraced then traced, then a short traced
  // probe of every other workload (set-up once, for warm caches).
  Plan own{args.seed, args.smoke, 1, args.seconds / 2, args.seconds / 2};
  workload.run(own, out, trace);
  for (const Workload& other : kWorkloads) {
    if (other.name == workload.name) continue;
    Plan probe{args.seed, args.smoke, 1, 0, args.smoke ? 0.01 : 1.0};
    other.run(probe, out, trace);
  }
}

/// Every catalogued metric of the run's kind must be present and finite,
/// and an end-to-end metric nonzero (a relative bound needs a nonzero
/// baseline); anything else is a benchmark failure. A per-layer count may
/// legitimately be 0 (fleet.steals when no worker runs dry).
void require_metrics(Kind kind, Results& out) {
  for (const MetricSpec& spec : catalogue()) {
    if (spec.kind != kind) continue;
    const auto it = out.values().find(spec.name);
    const bool ok = it != out.values().end() && std::isfinite(it->second) &&
                    (kind == Kind::kPerLayer || it->second != 0);
    out.check(ok, "metric " + std::string(spec.name) + " missing, zero or not finite");
  }
}

void print_result(Kind kind, const Results& out) {
  for (const auto& message : out.failures()) std::fprintf(stderr, "FAILED: %s\n", message.c_str());
  std::string metrics;
  for (const MetricSpec& spec : catalogue()) {
    if (spec.kind != kind) continue;
    const auto it = out.values().find(spec.name);
    if (it == out.values().end() || !std::isfinite(it->second)) continue;
    std::printf("%-36s %16.6f %s\n", std::string(spec.name).c_str(), it->second,
                std::string(spec.unit).c_str());
    char entry[256];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", std::string(spec.name).c_str(), it->second,
                  std::string(spec.unit).c_str());
    metrics += entry;
  }
  const double fail_frac = out.attempted() > 0 ? static_cast<double>(out.failed()) /
                                                     static_cast<double>(out.attempted())
                                               : 1.0;
  std::printf("%-36s %16.6f failed/attempted (%lld of %lld)\n", "fail_frac", fail_frac,
              static_cast<long long>(out.failed()), static_cast<long long>(out.attempted()));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              out.failed() == 0 ? "true" : "false", static_cast<long long>(out.attempted()),
              static_cast<long long>(out.failed()), metrics.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "lft_perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  print_header(args);
  Results out;
  Trace trace;
  run_one(args, *workload, out, trace);
  const Kind kind = args.trace == 0 ? Kind::kEndToEnd : Kind::kPerLayer;
  require_metrics(kind, out);
  if (args.trace == 1 && !args.trace_out.empty() && !trace.write(args.trace_out)) {
    out.fail("could not write the span trace to " + args.trace_out);
  }
  print_result(kind, out);
  return out.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: lft_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--trace-out PATH]\n");
    return 2;
  }
  return run(args);
}