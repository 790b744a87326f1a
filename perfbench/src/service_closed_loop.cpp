// service_closed_loop: an in-process service::Server with default
// ServerOptions (7 replicas, t = 1, loopback replicas, kAuto reactor,
// pipeline 4) driven by two client threads, each a closed loop of window 256
// through Client::queue_propose / flush / recv_ack with 16-byte payloads.
// Closed loop because coordination-service callers each wait for their
// reply. No message delay is injected: latency is processor time only.
//
// The load runs in epochs: a fresh server takes a fixed number of requests,
// a subscriber then replays its whole log and checks every command arrived
// exactly once, in order, with its payload. Bounding each epoch bounds the
// replicated log (seven copies) in memory.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>

#include "obs/obs.hpp"
#include "scenarios/scenarios.hpp"
#include "service/client.hpp"
#include "service/ordering.hpp"
#include "service/replica.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lft::service::Client;

constexpr int kClients = 2;
constexpr std::uint64_t kWindow = 256;
constexpr std::size_t kPayloadBytes = 16;
/// One span per this many requests (or flushes) in the traced phase: enough
/// samples for the means, few enough to keep the span store small.
constexpr std::uint64_t kSpanEvery = 64;

std::array<std::byte, kPayloadBytes> payload_for(std::uint64_t seed, std::uint64_t client,
                                                 std::uint64_t request) {
  const std::uint64_t words[2] = {mix(seed, client << 40 | request),
                                  mix(seed ^ 0x7061796c, client << 40 | request)};
  std::array<std::byte, kPayloadBytes> out{};
  std::memcpy(out.data(), words, kPayloadBytes);
  return out;
}

/// A server running on its own thread; stopped through the wire protocol.
class RunningServer {
 public:
  RunningServer() : thread_([this] { server_.run(); }) {}
  ~RunningServer() { stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }

  /// Sends kShutdown and joins; false when the server did not confirm.
  bool stop() {
    if (!thread_.joinable()) return true;
    Client stopper(server_.port(), /*client_id=*/0x57c9);
    const bool ok = stopper.connected() && stopper.shutdown_server();
    thread_.join();
    return ok;
  }

 private:
  lft::service::Server server_;
  std::thread thread_;  // declared after server_, which it runs
};

struct ClientRun {
  std::string error;  ///< empty when every request was acked correctly
  std::uint64_t acked = 0;
  std::vector<double> latency_ms;
};

/// One closed-loop client: keeps `kWindow` proposals in flight until
/// `requests` are acked, checking acks arrive in request order, fresh and
/// with increasing log indices.
void closed_loop(std::uint16_t port, std::uint64_t client_id, std::uint64_t requests,
                 std::uint64_t seed, SpanLog* log, ClientRun& out) {
  Client client(port, client_id);
  if (!client.connected()) {
    out.error = "connect/handshake failed";
    return;
  }
  std::vector<std::uint64_t> sent_ns(requests + 1, 0);
  out.latency_ms.reserve(requests);
  std::uint64_t next = 1;
  std::uint64_t flushes = 0;
  std::uint64_t last_index = 0;
  while (out.acked < requests) {
    const bool refill = next <= requests && next - (out.acked + 1) < kWindow;
    while (next <= requests && next - (out.acked + 1) < kWindow) {
      client.queue_propose(next, payload_for(seed, client_id, next));
      sent_ns[next] = now_ns();
      ++next;
    }
    if (refill) {
      const auto start = now_ns();
      const bool flushed = client.flush();
      if (log != nullptr && ++flushes % kSpanEvery == 0) {
        log->add("client.flush", start, now_ns(), client_id);
      }
      if (!flushed) {
        out.error = "flush failed";
        return;
      }
    }
    const auto start = now_ns();
    const auto ack = client.recv_ack();
    const auto end = now_ns();
    if (!ack) {
      out.error = "recv_ack failed (request lost)";
      return;
    }
    const std::uint64_t expect = out.acked + 1;
    if (log != nullptr && expect % kSpanEvery == 0) {
      log->add("client.recv_ack", start, end, client_id << 40 | expect);
    }
    if (ack->request_id != expect) {
      out.error = "ack out of request order";
      return;
    }
    if (ack->applied.duplicate) {
      out.error = "fresh request acked as duplicate";
      return;
    }
    if (out.acked > 0 && ack->applied.index <= last_index) {
      out.error = "log indices not increasing within the session";
      return;
    }
    last_index = ack->applied.index;
    out.latency_ms.push_back(ms_between(sent_ns[expect], end));
    ++out.acked;
  }
}

/// Replays the log through a subscriber: exactly `total` contiguous
/// entries, each client's requests 1..per_client in order, payloads intact.
/// Returns the slot count, or nullopt (with a failure recorded) on a lost,
/// duplicated, reordered or corrupt command.
std::optional<std::uint64_t> audit_log(std::uint16_t port, std::uint64_t per_client,
                                       std::uint64_t seed, Results& out) {
  const std::uint64_t total = per_client * kClients;
  Client auditor(port, /*client_id=*/0xa0d17);
  const auto state = auditor.connected() ? auditor.read_state() : std::nullopt;
  if (!state || state->size != total) {
    out.fail("service audit: log size differs from the requests acked");
    return std::nullopt;
  }
  if (!auditor.subscribe(0)) {
    out.fail("service audit: subscribe failed");
    return std::nullopt;
  }
  std::array<std::uint64_t, kClients + 1> seen{};
  for (std::uint64_t i = 0; i < total; ++i) {
    const auto e = auditor.next_commit();
    const bool ok = e && e->index == i && e->client_id >= 1 && e->client_id <= kClients &&
                    e->request_id == seen[e->client_id] + 1 &&
                    e->payload.size() == kPayloadBytes &&
                    std::memcmp(e->payload.data(),
                                payload_for(seed, e->client_id, e->request_id).data(),
                                kPayloadBytes) == 0;
    if (!ok) {
      out.add(static_cast<std::int64_t>(total), static_cast<std::int64_t>(total - i),
              "service audit: command lost, duplicated, reordered or corrupt");
      return std::nullopt;
    }
    seen[e->client_id] = e->request_id;
  }
  out.add(static_cast<std::int64_t>(total), 0, "");
  return state->slots;
}

struct Epoch {
  double wall_s = 0;  ///< first propose to last ack
  std::uint64_t acked = 0;
  std::uint64_t slots = 0;
  double ack_p50_ms = 0;  ///< over this epoch's acks
  double ack_p99_ms = 0;
  std::optional<lft::obs::Snapshot> stats;  ///< traced epochs only
};

Epoch run_epoch(std::uint64_t per_client, std::uint64_t seed, Trace* trace, Results& out) {
  Epoch epoch;
  RunningServer server;
  std::array<ClientRun, kClients> runs;
  std::array<SpanLog*, kClients> logs{};
  if (trace != nullptr) {
    for (int c = 0; c < kClients; ++c) logs[c] = &trace->log("client" + std::to_string(c + 1));
  }
  const auto start = now_ns();
  {
    std::array<std::thread, kClients> threads;
    for (int c = 0; c < kClients; ++c) {
      threads[c] = std::thread(closed_loop, server.port(), static_cast<std::uint64_t>(c + 1),
                               per_client, seed, logs[c], std::ref(runs[c]));
    }
    for (auto& thread : threads) thread.join();
  }
  epoch.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  bool clients_ok = true;
  std::vector<double> latency_ms;
  for (auto& run : runs) {
    const auto failed = run.error.empty() ? 0 : static_cast<std::int64_t>(per_client - run.acked);
    out.add(static_cast<std::int64_t>(per_client), failed, "service client: " + run.error);
    clients_ok = clients_ok && run.error.empty();
    epoch.acked += run.acked;
    latency_ms.insert(latency_ms.end(), run.latency_ms.begin(), run.latency_ms.end());
  }
  epoch.ack_p50_ms = quantile(latency_ms, 0.5);
  epoch.ack_p99_ms = quantile(std::move(latency_ms), 0.99);
  if (trace != nullptr) {
    Client stats_client(server.port(), /*client_id=*/0x0b5);
    epoch.stats = stats_client.connected() ? stats_client.server_stats() : std::nullopt;
    if (!epoch.stats) out.fail("service: server_stats fetch failed");
  }
  if (clients_ok) {
    if (const auto slots = audit_log(server.port(), per_client, seed, out)) epoch.slots = *slots;
  }
  if (!server.stop()) out.fail("service: shutdown not confirmed");
  return epoch;
}

double histogram_sum(const lft::obs::Snapshot& snap, std::string_view name) {
  const auto* row = snap.find_histogram(name);
  return row == nullptr ? 0.0 : static_cast<double>(row->data.sum());
}

double counter(const lft::obs::Snapshot& snap, std::string_view name) {
  const auto* row = snap.find_counter(name);
  return row == nullptr ? 0.0 : static_cast<double>(row->value);
}

struct OrderingDrive {
  std::uint64_t committed = 0;
  std::uint64_t slots = 0;
  double rounds = 0;    ///< summed over the slots
  double messages = 0;  ///< summed over the slots
  double wall_s = 0;
};

/// Drives the ordering layer alone — ReplicaGroup enqueue/step/take_head at
/// the server's pipeline depth in batches of `batch_size`, no sockets — and
/// checks every slot reproduces the engine twin's fingerprint and every
/// command applies once, in order. Records a span per call when `log` is set.
OrderingDrive drive_ordering(std::size_t batch_size, std::uint64_t commands, std::uint64_t seed,
                             std::uint64_t twin_fingerprint, SpanLog* log, Results& out) {
  auto span = [log](const char* name, std::uint64_t start) {
    if (log != nullptr) log->add(name, start, now_ns());
  };
  lft::service::ReplicaGroupOptions options;
  options.pipeline = lft::service::ServerOptions{}.pipeline;
  lft::service::ReplicaGroup group(options);
  OrderingDrive drive;
  std::uint64_t next_request = 1;
  const auto start = now_ns();
  while (drive.committed < commands) {
    while (group.can_enqueue() && next_request <= commands) {
      std::vector<lft::service::Command> batch;
      for (std::size_t i = 0; i < batch_size && next_request <= commands; ++i, ++next_request) {
        const auto payload = payload_for(seed, 1, next_request);
        batch.push_back({1, next_request, {payload.begin(), payload.end()}});
      }
      const auto t0 = now_ns();
      group.enqueue(std::move(batch));
      span("ordering.enqueue", t0);
    }
    const auto t0 = now_ns();
    group.step();
    span("ordering.step", t0);
    while (group.head_ready()) {
      const auto t1 = now_ns();
      const auto result = group.take_head();
      span("ordering.take_head", t1);
      out.check(result.slot_fingerprint == twin_fingerprint,
                "ordering: slot fingerprint differs from the engine twin");
      for (const auto& applied : result.applied) {
        out.check(!applied.duplicate && applied.index == drive.committed,
                  "ordering: command applied out of order or twice");
        ++drive.committed;
      }
      ++drive.slots;
      drive.rounds += static_cast<double>(result.slot_rounds);
      drive.messages += static_cast<double>(result.slot_messages);
    }
  }
  drive.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  return drive;
}

}  // namespace

void service_closed_loop(const Plan& plan, Results& out, Trace& trace) {
  const std::uint64_t per_client = plan.smoke ? 2000 : 60000;
  const std::uint64_t ordering_commands = plan.smoke ? 2000 : 100000;
  const std::uint64_t seed = mix(plan.seed, 0x5e7);

  // The commit slot every batch runs: Few-Crashes-Consensus over the replica
  // group, fault-free and seed-independent. Its engine twin is the reference
  // fingerprint for every slot of the ordering drives.
  const auto twin = lft::service::run_slot_on_engine(lft::service::kDefaultGroupSize,
                                                     lft::service::kDefaultFaultBudget);
  out.check(twin.committed, "service: engine twin slot did not commit");
  const std::uint64_t twin_fingerprint = lft::scenarios::fingerprint(twin.report);

  // Set-up: server construction, connect, and the first ack. One takes well
  // under a millisecond and is bound by thread wake-ups, so set-ups run in
  // rounds of plan.setup_reps — one round first, then one before every
  // untraced epoch, spread over the run like the other timings — and
  // setup_s is the median over rounds of a round's mean set-up time.
  std::vector<double> setup_round_ms;
  auto setup_round = [&] {
    std::vector<double> setup_ms;
    for (int rep = 0; rep < plan.setup_reps; ++rep) {
      const auto start = now_ns();
      RunningServer server;
      Client client(server.port(), 1);
      const auto payload = payload_for(seed, 1, 1);
      const auto ack = client.connected() ? client.propose(1, payload) : std::nullopt;
      setup_ms.push_back(ms_between(start, now_ns()));
      out.check(ack.has_value() && !ack->duplicate && ack->index == 0,
                "service: first propose not acked");
      if (!server.stop()) out.fail("service: shutdown not confirmed");
    }
    if (!setup_ms.empty()) setup_round_ms.push_back(mean(setup_ms));
  };
  setup_round();

  // A unit is one epoch; the rate is acked requests per second of client
  // time (the epoch's server start and audit are not counted).
  std::vector<Epoch> untraced;
  std::vector<Epoch> traced;
  const Rates rates = run_phases(plan, out, [&](bool tracing) {
    if (!tracing) setup_round();
    Epoch epoch = run_epoch(per_client, seed, tracing ? &trace : nullptr, out);
    const Amount amount{static_cast<double>(epoch.acked), epoch.wall_s};
    (tracing ? traced : untraced).push_back(std::move(epoch));
    return amount;
  });

  if (!setup_round_ms.empty()) out.set("setup_s", median(setup_round_ms) / 1e3);
  if (!untraced.empty()) {
    double slots = 0;
    double acked = 0;
    double wall_s = 0;
    std::vector<double> p50;
    for (const Epoch& e : untraced) {
      slots += static_cast<double>(e.slots);
      acked += static_cast<double>(e.acked);
      wall_s += e.wall_s;
      p50.push_back(e.ack_p50_ms);
    }
    std::printf("service_closed_loop: %zu epochs of %llu acks\n", untraced.size(),
                static_cast<unsigned long long>(per_client * kClients));
    out.set("req_per_s", rates.untraced);
    out.set("exec_per_s", slots / wall_s);
    // Mean of the epochs' p50s: a median over epochs would jump with the
    // machine's speed phases.
    out.set("ack_p50_ms", mean(p50));
    // The served slots' rounds and messages are not visible through the
    // server's API; an ordering drive at the served mean batch measures
    // them on the same ReplicaGroup, each slot gated against the twin, whose
    // Report (fingerprint included) gives the bits.
    const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(acked / slots)));
    const auto drive =
        drive_ordering(batch, ordering_commands, seed, twin_fingerprint, nullptr, out);
    const double n = lft::service::kDefaultGroupSize;
    out.set("rounds_per_exec", drive.rounds / static_cast<double>(drive.slots));
    out.set("msgs_per_node", drive.messages / static_cast<double>(drive.slots) / n);
    out.set("bits_per_node", static_cast<double>(twin.report.metrics.bits_total) / n);
  }
  if (traced.empty()) return;

  std::vector<double> p99;
  lft::obs::Snapshot stats;
  for (const Epoch& e : traced) {
    p99.push_back(e.ack_p99_ms);
    if (e.stats) stats.merge_from(*e.stats);
  }
  // Means, not medians: most recv_ack calls return an ack already buffered,
  // so the mean is the time a client waits per ack.
  out.set("client.flush_us", mean(trace.durations_ms("client.flush")) * 1e3);
  out.set("client.recv_wait_us", mean(trace.durations_ms("client.recv_ack")) * 1e3);
  out.set("client.ack_p99_ms", median(p99));

  const double batches = counter(stats, "lft_service_commit_batches_total");
  const double cmds_per_slot =
      batches > 0 ? counter(stats, "lft_service_commit_entries_total") / batches : 0.0;
  out.set("service.cmds_per_slot", cmds_per_slot);
  const double enqueue = histogram_sum(stats, "lft_service_pump_enqueue_ns");
  const double step = histogram_sum(stats, "lft_service_pump_step_ns");
  const double retire = histogram_sum(stats, "lft_service_pump_retire_ns");
  const double flush = histogram_sum(stats, "lft_service_pump_flush_ns");
  const double wait = histogram_sum(stats, "lft_service_reactor_wait_ns");
  const double reactor_total = enqueue + step + retire + flush + wait;
  if (reactor_total > 0) {
    out.set("service.pump_enqueue_share", enqueue / reactor_total);
    out.set("service.pump_step_share", step / reactor_total);
    out.set("service.pump_retire_share", retire / reactor_total);
    out.set("service.pump_flush_share", flush / reactor_total);
    out.set("net.reactor_wait_share", wait / reactor_total);
  }
  if (const auto* row = stats.find_histogram("lft_service_reactor_batch")) {
    out.set("net.reactor_batch_mean", row->data.mean());
  }

  const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(cmds_per_slot)));
  const auto drive = drive_ordering(batch, ordering_commands, seed, twin_fingerprint,
                                    &trace.log("ordering"), out);
  out.set("ordering.step_us", median(trace.durations_ms("ordering.step")) * 1e3);
  out.set("ordering.take_head_us", median(trace.durations_ms("ordering.take_head")) * 1e3);
  out.set("ordering.cmds_per_s", static_cast<double>(drive.committed) / drive.wall_s);
  out.set("ordering.msgs_per_cmd", drive.messages / static_cast<double>(drive.committed));
}

}  // namespace perfbench
