// Simulator workloads: svss-stream, svss-n7-byz and ideal-stream.
//
// Each unit builds a fresh Engine + Node stack (outside the timed phase;
// setup_s times batches of the same builds), drives it until every honest
// node decided every instance of the unit, and reads the waste and state
// counters back through public accessors only.  A run repeats a fixed cycle
// of units, derived from the run seed, while another whole cycle fits in
// the time budget; because every cycle is identical, the packet, byte and
// round counts per decision repeat exactly for a seed no matter how many
// cycles the machine fits in.  The time figures are read off each distinct
// unit's BestClock: its delivery sequence repeats exactly in every cycle, so
// each piece of it is charged the least time any cycle took for it.
#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/byzantine.hpp"
#include "core/node.hpp"

namespace e2e {

namespace {

using svss::CoinMode;
using svss::Context;
using svss::Node;
using svss::Packet;

// The bench-owned process hosted in every engine slot: it forwards each
// delivery to the slot's Node and, in a traced run, charges the call's
// wall time to the delivered packet's layer.  Untraced runs go through the
// same object, so both runs execute the same schedule.
class BenchProcess final : public svss::IProcess {
 public:
  BenchProcess(int self, int n, int t) : node(self, n, t) {}

  void start(Context& ctx) override { node.start(ctx); }
  void on_packet(Context& ctx, int from, const Packet& p) override {
    if (tracer == nullptr) {
      node.on_packet(ctx, from, p);
      return;
    }
    std::uint64_t t0 = now_ns();
    node.on_packet(ctx, from, p);
    std::uint64_t t1 = now_ns();
    tracer->record(node.self(), p, t0, t1);
    tracer->sample_dmm(node.dmm().buffered_messages());
  }

  Node node;
  Tracer* tracer = nullptr;
};

struct SimSpec {
  int n = 4;
  int t = 1;
  svss::SchedulerKind scheduler = svss::SchedulerKind::kFifo;
  CoinMode mode = CoinMode::kSvss;
  int byz_slot = -1;            // this slot runs ByzKind::kWrongRecon
  std::uint32_t instances = 1;  // agreement instances per stack
  std::uint32_t window = 1;     // instances each node keeps in flight
  std::uint32_t cycle = 1;      // distinct units per cycle
};

SimSpec spec_for(const Options& o) {
  SimSpec s;
  if (o.workload == "svss-stream") {
    s.instances = o.tiny ? 4 : 16;
    s.window = o.tiny ? 2 : 4;
    s.cycle = o.tiny ? 1 : 2;
  } else if (o.workload == "svss-n7-byz") {
    s.n = 7;
    s.t = 2;
    s.scheduler = svss::SchedulerKind::kRandom;
    s.byz_slot = 6;
    s.cycle = o.tiny ? 1 : 4;
  } else {  // ideal-stream
    s.n = 7;
    s.t = 2;
    s.mode = CoinMode::kIdealCommon;
    s.instances = o.tiny ? 32 : 256;
    s.window = 32;
    s.cycle = o.tiny ? 1 : 16;
  }
  return s;
}

struct SimStack {
  std::unique_ptr<svss::Engine> engine;
  std::vector<BenchProcess*> procs;  // owned by the engine
};

SimStack build_stack(const SimSpec& spec, std::uint64_t unit_seed,
                     Tracer* tracer) {
  const int n = spec.n;
  SimStack s;
  s.engine = std::make_unique<svss::Engine>(
      n, spec.t, unit_seed,
      svss::make_scheduler(spec.scheduler, unit_seed ^ 0x5C4EDULL, n, spec.t));
  for (int i = 0; i < n; ++i) {
    auto p = std::make_unique<BenchProcess>(i, n, spec.t);
    p->tracer = tracer;
    s.procs.push_back(p.get());
    s.engine->set_process(i, std::move(p));
  }
  if (spec.byz_slot >= 0) {
    svss::ByzConfig byz;
    byz.kind = svss::ByzKind::kWrongRecon;
    s.engine->set_interceptor(
        spec.byz_slot,
        svss::make_byzantine_interceptor(
            byz, n, spec.t,
            unit_seed * 1315423911ULL +
                static_cast<std::uint64_t>(spec.byz_slot)));
  }
  return s;
}

constexpr std::uint64_t kMaxDeliveries = 400'000'000;

// One distinct unit of the cycle, accumulated over its repetitions.
struct Position {
  BestClock clock;
  std::uint64_t decided = 0;  // instances decided, per repetition
  // Engine steps at which each decided instance was first started and
  // last decided; identical in every repetition, kept from the first.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> steps;
};

// Runs one unit: one stack driven until every honest node decided every
// instance.  `position` is the unit's place in its cycle; it picks the
// unit's seed and input stratum, so every cycle repeats the same units.
void run_unit(const Options& opts, const SimSpec& spec,
              std::uint32_t position, std::uint32_t unit_index,
              Position& acc, RunStats& stats, Tracer* tracer) {
  const std::uint64_t unit_seed = derive_seed(opts.seed, 0x5EEDu, position);
  const int n = spec.n;
  const std::uint32_t k_total = spec.instances;
  std::vector<bool> honest(static_cast<std::size_t>(n), true);
  if (spec.byz_slot >= 0) {
    honest[static_cast<std::size_t>(spec.byz_slot)] = false;
  }
  int honest_count =
      static_cast<int>(std::count(honest.begin(), honest.end(), true));
  std::vector<InstanceInputs> inputs =
      make_inputs(unit_seed, n, k_total, position);
  std::uint64_t coin_seed = derive_seed(unit_seed, 0xC011u, 0);

  // ---- set-up (outside the timed phase): the Engine and its n Nodes --
  SimStack stack = build_stack(spec, unit_seed, tracer);
  svss::Engine& engine = *stack.engine;
  std::vector<BenchProcess*>& procs = stack.procs;

  // ---- timed phase --------------------------------------------------
  std::vector<InstanceOutcome> out(k_total);
  for (std::uint32_t k = 0; k < k_total; ++k) {
    out[k].instance = k;
    out[k].unanimous = inputs[k].unanimous;
    out[k].decision.assign(static_cast<std::size_t>(n), -1);
    out[k].round.assign(static_cast<std::size_t>(n), 0);
    out[k].start_ns = ~0ULL;
  }
  // Engine steps (calls of the run_until predicate, one per delivery) at
  // which each instance was first started and last decided.
  std::uint64_t step = 0;
  std::vector<std::uint64_t> start_step(k_total, ~0ULL);
  std::vector<std::uint64_t> end_step(k_total, 0);
  std::uint64_t remaining =
      static_cast<std::uint64_t>(honest_count) * k_total;
  std::vector<std::uint32_t> next(static_cast<std::size_t>(n), 0);
  const CoinMode mode = spec.mode;

  auto start_next = [&](Context& c, Node& nd) {
    std::uint32_t& k = next[static_cast<std::size_t>(nd.self())];
    if (k >= k_total) return;
    std::uint64_t now = now_ns();
    if (now < out[k].start_ns) out[k].start_ns = now;
    start_step[k] = std::min(start_step[k], step);
    nd.start_aba(c, inputs[k].input[static_cast<std::size_t>(nd.self())],
                 mode, coin_seed, k);
    ++k;
  };
  for (int i = 0; i < n; ++i) {
    Node& nd = procs[static_cast<std::size_t>(i)]->node;
    const bool is_honest = honest[static_cast<std::size_t>(i)];
    nd.set_start_action([&](Context& c, Node& self) {
      for (std::uint32_t w = 0; w < spec.window; ++w) start_next(c, self);
    });
    nd.observers.aba_decided = [&, i, is_honest](Context& c, int value,
                                                 std::uint32_t round,
                                                 std::uint32_t inst) {
      if (inst < k_total && is_honest &&
          out[inst].decision[static_cast<std::size_t>(i)] < 0) {
        out[inst].decision[static_cast<std::size_t>(i)] = value;
        out[inst].round[static_cast<std::size_t>(i)] = round;
        out[inst].end_ns = now_ns();
        end_step[inst] = step;
        --remaining;
      }
      // Closed loop: the next instance starts from the decide callback.
      start_next(c, procs[static_cast<std::size_t>(i)]->node);
    };
  }
  if (tracer != nullptr) tracer->open_unit(unit_index, k_total, now_ns());

  std::vector<std::uint64_t> piece_wall;
  std::vector<std::uint64_t> piece_cpu;
  std::uint64_t c0 = process_cpu_ns();
  std::uint64_t t0 = now_ns();
  std::uint64_t piece_c = c0;
  std::uint64_t piece_t = t0;
  auto close_piece = [&] {
    std::uint64_t c = process_cpu_ns();
    std::uint64_t t = now_ns();
    piece_cpu.push_back(c - piece_c);
    piece_wall.push_back(t - piece_t);
    piece_c = c;
    piece_t = t;
  };
  engine.run_until(
      [&] {
        if (++step % kPieceDeliveries == 0) close_piece();
        return remaining == 0;
      },
      kMaxDeliveries);
  if (step % kPieceDeliveries != 0) close_piece();
  std::uint64_t t1 = piece_t;
  std::uint64_t cpu = piece_c - c0;
  stats.engine_ns += t1 - t0;
  if (tracer != nullptr) {
    for (std::uint32_t k = 0; k < k_total; ++k) {
      RootSpan& r = tracer->root(k);
      r.start_ns = out[k].start_ns;
      r.end_ns = out[k].end_ns;
    }
  }

  // ---- counters read back through public accessors ----------------
  const svss::Metrics& m = engine.metrics();
  stats.packets += m.packets_sent;
  stats.bytes += m.bytes_sent;
  stats.deliveries += m.packets_delivered;
  for (int i = 0; i < n; ++i) {
    if (!honest[static_cast<std::size_t>(i)]) continue;
    read_node_counters(procs[static_cast<std::size_t>(i)]->node, k_total,
                       stats);
  }
  GateContext g{&opts, n, spec.t, honest, unit_seed};
  std::uint64_t decided_before = stats.decisions;
  check_unit(g, out, engine.log().shun_pairs(), stats);
  stats.add_timed(t1 - t0, cpu);
  stats.units += 1;
  if (acc.clock.repetitions() == 0) {
    acc.decided = stats.decisions - decided_before;
    for (std::uint32_t k = 0; k < k_total; ++k) {
      if (out[k].decided) acc.steps.emplace_back(start_step[k], end_step[k]);
    }
  }
  if (!acc.clock.merge(piece_wall, piece_cpu, step)) {
    std::fprintf(stderr,
                 "e2ebench: workload=%s seed=%llu unit %u took %llu engine "
                 "steps, unlike its earlier repetitions: the simulator did "
                 "not repeat the unit exactly\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed), position,
                 static_cast<unsigned long long>(step));
    std::exit(2);
  }
  // Engine and Nodes are torn down here, outside the timed phase.
}

// One setup_s sample: the mean build time of kSetupBatch stacks built back
// to back (a single stack builds in microseconds, too short to time alone).
void sample_setup(const SimSpec& spec, std::uint64_t seed, RunStats& stats) {
  std::vector<SimStack> batch;
  batch.reserve(kSetupBatch);
  std::uint64_t s0 = now_ns();
  for (int b = 0; b < kSetupBatch; ++b) {
    batch.push_back(build_stack(spec, derive_seed(seed, 0x5E7u, b), nullptr));
  }
  stats.setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9 /
                          kSetupBatch);
}

}  // namespace

RunStats run_sim_workload(const Options& o) {
  SimSpec spec = spec_for(o);
  RunStats stats;
  stats.rss_base_kb = rss_kb();
  Tracer* tracer = o.trace ? &stats.tracer : nullptr;
  std::uint64_t started = now_ns();
  std::uint32_t unit = 0;
  std::uint32_t cycles = 0;
  std::vector<Position> positions(spec.cycle);
  // Whole cycles only, so the per-decision counts repeat exactly; another
  // cycle runs only if it is expected to fit in the time budget.
  do {
    for (std::uint32_t c = 0; c < spec.cycle; ++c, ++unit) {
      sample_setup(spec, derive_seed(o.seed, 0x5E7u, unit), stats);
      run_unit(o, spec, c, unit, positions[c], stats, tracer);
    }
    ++cycles;
  } while (o.units > 0 ? unit < o.units
                       : fits_another(started, cycles, o.seconds));
  // One rate and CPU sample per distinct unit, and one latency sample per
  // decided instance of it, all read off its best clock.
  for (const Position& p : positions) {
    if (p.decided == 0) continue;
    const double dec = static_cast<double>(p.decided);
    stats.unit_rate.push_back(dec / (p.clock.wall_ns_total() / 1e9));
    stats.unit_cpu_ms.push_back(p.clock.cpu_ns_total() / 1e6 / dec);
    for (const auto& [first, last] : p.steps) {
      stats.latency_ms.push_back(
          (p.clock.wall_ns_at(last) - p.clock.wall_ns_at(first)) / 1e6);
    }
  }
  stats.instances_per_unit = spec.instances;
  return stats;
}

}  // namespace e2e
