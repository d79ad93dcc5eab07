// socket-svss: one SVSS-coin agreement instance per freshly built n = 4
// cluster over TCP on 127.0.0.1, each node on its own worker thread,
// instances one after another.
//
// The cluster is assembled from the parts LoopbackCluster is built from
// (NodeDaemon + net::SocketTransport) because the benchmark needs the
// delivery callback, which LoopbackCluster hides: the bench installs its
// own SocketTransport::set_delivery sink in traced and untraced runs alike.
// Each node journals its decision to its own DecisionJournal (fsync per
// append) from the decide callback, as DaemonService::adopt_record does;
// the decision counts as made once it is durable.
//
// A persistent socket stream is not used: the post-decision coin rounds of
// earlier instances make its cost vary several-fold from run to run.
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/daemon.hpp"
#include "core/recovery.hpp"
#include "net/socket_transport.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using svss::Context;
using svss::Packet;

constexpr int kN = 4;
constexpr int kT = 1;
constexpr int kTimeoutMs = 20'000;

// One long-lived worker thread per node slot.  Reusing the threads across
// instances keeps each one's malloc arena, so peak RSS does not depend on
// where the allocator places a fresh thread's arena.
class WorkerPool {
 public:
  explicit WorkerPool(int n) {
    for (int i = 0; i < n; ++i) threads_.emplace_back([this, i] { loop(i); });
  }
  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
      ++gen_;
    }
    go_.notify_all();
    for (std::thread& th : threads_) th.join();
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs job(i) on worker i for every worker; returns when all finished.
  void run(const std::function<void(int)>& job) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = &job;
      pending_ = static_cast<int>(threads_.size());
      ++gen_;
    }
    go_.notify_all();
    std::unique_lock<std::mutex> lk(mu_);
    done_.wait(lk, [this] { return pending_ == 0; });
  }

 private:
  void loop(int i) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        go_.wait(lk, [&] { return gen_ != seen; });
        seen = gen_;
        if (stop_) return;
        job = job_;
      }
      (*job)(i);
      std::lock_guard<std::mutex> lk(mu_);
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable go_;
  std::condition_variable done_;
  std::uint64_t gen_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  const std::function<void(int)>* job_ = nullptr;
  std::vector<std::thread> threads_;
};

// Everything one node of one cluster owns; touched only by its worker
// thread while WorkerPool::run executes, and by the main thread otherwise.
struct Slot {
  std::unique_ptr<svss::net::SocketTransport> tr;
  std::unique_ptr<svss::NodeDaemon> daemon;
  svss::DecisionJournal journal;
  Tracer tracer;
  int decision = -1;
  std::uint32_t round = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t decided_ns = 0;
  std::uint64_t append_ns = 0;
  std::uint64_t thread_cpu_ns = 0;
  bool journal_ok = true;
};

void run_unit(const Options& o, std::uint64_t unit_seed, std::uint32_t unit,
              WorkerPool& pool, RunStats& stats) {
  std::vector<InstanceInputs> inputs = make_inputs(unit_seed, kN, 1, unit);
  Tracer* global = o.trace ? &stats.tracer : nullptr;

  // ---- set-up: bind listeners, wire peers, build daemons, open journals
  std::uint64_t s0 = now_ns();
  std::vector<Slot> slots(kN);
  svss::net::ClusterConfig wild;
  wild.peers.assign(kN, svss::net::Endpoint{});
  for (int i = 0; i < kN; ++i) {
    auto tr = std::make_unique<svss::net::SocketTransport>(i, wild);
    if (!tr->open()) {
      std::fprintf(stderr, "socket-svss: failed to bind a listener\n");
      std::exit(2);
    }
    slots[static_cast<std::size_t>(i)].tr = std::move(tr);
  }
  for (Slot& s : slots) {
    for (int p = 0; p < kN; ++p) {
      std::uint16_t port = slots[static_cast<std::size_t>(p)].tr->bound_port();
      s.tr->set_peer(p, svss::net::Endpoint{"127.0.0.1", port});
    }
  }
  for (int i = 0; i < kN; ++i) {
    Slot& s = slots[static_cast<std::size_t>(i)];
    s.daemon = std::make_unique<svss::NodeDaemon>(i, kN, kT, unit_seed, *s.tr,
                                                  svss::TransportOptions{});
    std::string path = o.workdir + "/journal-" + std::to_string(i) + ".log";
    std::remove(path.c_str());
    if (!s.journal.open(path)) {
      std::fprintf(stderr, "socket-svss: cannot open %s\n", path.c_str());
      std::exit(2);
    }
  }
  stats.setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);

  // ---- wiring: delivery sink, decide callback, input --------------------
  std::size_t root_base = 0;
  if (global != nullptr) {
    global->open_unit(unit, 1, 0);
    root_base = global->root_base();
  }
  for (int i = 0; i < kN; ++i) {
    Slot& s = slots[static_cast<std::size_t>(i)];
    svss::NodeDaemon& d = *s.daemon;
    const bool traced = global != nullptr;
    if (traced) s.tracer.bind_unit(root_base, 1);
    s.tr->set_delivery([&s, &d, traced](int from, Packet p) {
      Context ctx(d.world());
      if (!traced) {
        d.node().on_packet(ctx, from, p);
        return;
      }
      std::uint64_t t0 = now_ns();
      d.node().on_packet(ctx, from, p);
      std::uint64_t t1 = now_ns();
      s.tracer.record(d.world().self, p, t0, t1);
      s.tracer.sample_dmm(d.node().dmm().buffered_messages());
    });
    d.node().observers.aba_decided = [&s](Context&, int value,
                                          std::uint32_t round,
                                          std::uint32_t inst) {
      if (s.decision >= 0) return;
      std::uint64_t a0 = now_ns();
      s.journal_ok = s.journal.append(svss::DecisionRecord{
          0, inst, static_cast<std::int32_t>(value), round});
      std::uint64_t a1 = now_ns();
      s.append_ns = a1 - a0;
      s.decision = value;
      s.round = round;
      s.decided_ns = a1;
    };
    int input = inputs[0].input[static_cast<std::size_t>(i)];
    d.node().set_start_action([input](Context& c, svss::Node& nd) {
      nd.start_aba(c, input, svss::CoinMode::kSvss, 0, 0);
    });
  }

  // ---- timed phase: each node on its own worker thread -------------------
  std::atomic<int> done{0};
  std::uint64_t c0 = process_cpu_ns();
  std::uint64_t t0 = now_ns();
  pool.run([&slots, &done](int i) {
    Slot& s = slots[static_cast<std::size_t>(i)];
    std::uint64_t cpu0 = thread_cpu_ns();
    s.start_ns = now_ns();
    s.daemon->start();
    bool counted = false;
    s.tr->run_until(
        [&] {
          if (!counted && s.decision >= 0) {
            counted = true;
            done.fetch_add(1, std::memory_order_acq_rel);
          }
          // Linger until every node decided: peers may still need this
          // endpoint's RB relays.
          return done.load(std::memory_order_acquire) >= kN;
        },
        kTimeoutMs);
    s.thread_cpu_ns = thread_cpu_ns() - cpu0;
  });
  std::uint64_t t1 = now_ns();
  std::uint64_t cpu = process_cpu_ns() - c0;

  // ---- read back, then gate ---------------------------------------------
  InstanceOutcome out;
  out.unanimous = inputs[0].unanimous;
  out.decision.assign(kN, -1);
  out.round.assign(kN, 0);
  out.start_ns = ~0ULL;
  std::vector<std::pair<int, int>> shuns;
  for (int i = 0; i < kN; ++i) {
    Slot& s = slots[static_cast<std::size_t>(i)];
    if (!s.journal_ok) {
      std::fprintf(stderr, "socket-svss: journal append failed\n");
      std::exit(2);
    }
    out.decision[static_cast<std::size_t>(i)] = s.decision;
    out.round[static_cast<std::size_t>(i)] = s.round;
    out.start_ns = std::min(out.start_ns, s.start_ns);
    out.end_ns = std::max(out.end_ns, s.decided_ns);
    if (s.decision >= 0) {
      stats.append_us.push_back(static_cast<double>(s.append_ns) / 1e3);
    }
    stats.thread_cpu_ns += s.thread_cpu_ns;
    const svss::Metrics& m = s.tr->metrics();
    stats.packets += m.packets_sent;
    stats.bytes += m.bytes_sent;
    stats.deliveries += m.packets_delivered;
    stats.out_dropped_frames += m.out_dropped_frames;
    read_node_counters(s.daemon->node(), 1, stats);
    for (const auto& pr : s.daemon->world().log.shun_pairs()) {
      shuns.push_back(pr);
    }
    if (global != nullptr) global->merge(std::move(s.tracer));
  }
  if (global != nullptr) {
    RootSpan& r = global->root(0);
    r.start_ns = out.start_ns;
    r.end_ns = out.end_ns;
  }
  GateContext g{&o, kN, kT, std::vector<bool>(kN, true), unit_seed};
  std::vector<InstanceOutcome> outs{std::move(out)};
  std::uint64_t decided_before = stats.decisions;
  check_unit(g, outs, shuns, stats);
  if (outs.front().decided) {
    stats.latency_ms.push_back(
        static_cast<double>(outs.front().end_ns - outs.front().start_ns) /
        1e6);
  }
  stats.note_unit(stats.decisions - decided_before, t1 - t0, cpu);
  stats.units += 1;
  for (Slot& s : slots) s.tr->shutdown();
}

}  // namespace

RunStats run_socket_workload(const Options& o) {
  RunStats stats;
  stats.rss_base_kb = rss_kb();
  WorkerPool pool(kN);
  std::uint64_t started = now_ns();
  std::uint32_t unit = 0;
  do {
    run_unit(o, derive_seed(o.seed, 0x50C4u, unit), unit, pool, stats);
    ++unit;
  } while (o.units > 0 ? unit < o.units
                       : fits_another(started, unit, o.seconds));
  return stats;
}

}  // namespace e2e
