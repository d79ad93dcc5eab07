// Shared pieces of the end-to-end agreement benchmark: run options, the
// per-layer tracer that wraps Node::on_packet from outside the stack, the
// per-run accumulators, and the correctness gate every run passes through.
//
// The benchmark only reaches the stack through public APIs (Engine + Node
// on the simulator, NodeDaemon + net::SocketTransport on TCP, and
// DecisionJournal), so every layer time here is measured at a call
// boundary into that layer, never from spans inside src/.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "sim/engine.hpp"

namespace e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process CPU time (user + sys, all threads) in nanoseconds.
std::uint64_t process_cpu_ns();
// Calling thread's CPU time in nanoseconds.
std::uint64_t thread_cpu_ns();
// Resident set size now, and the process's peak so far, in KiB.
std::uint64_t rss_kb();
std::uint64_t peak_rss_kb();

// SplitMix-style derivation of independent seeds from the run seed: every
// workload seed is a pure function of (run seed, purpose, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index);

// Sim stacks built per setup_s sample (one sample before each unit).
inline constexpr int kSetupBatch = 32;

// True if one more step of the average length so far still ends within
// `seconds` of `started_ns`.
bool fits_another(std::uint64_t started_ns, std::uint64_t steps,
                  double seconds);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // When > 0, run exactly this many units instead of filling `seconds`
  // (the traced run repeats the untraced run's units this way).
  std::uint64_t units = 0;
  bool tiny = false;         // smoke-check sizes
  bool forge_disagreement = false;  // flip one recorded decision (gate test)
  std::string spans_path;    // where the traced run writes its spans
  std::string workdir;       // journals of the socket workload
};

// ----------------------------------------------------------------------
// Layers and tracing
// ----------------------------------------------------------------------

// The src/ modules a delivered packet is charged to.  RB send and echo
// steps are the rbc layer's own work; every other packet (direct messages
// and the RB ready step that delivers a value) is charged to the
// Metrics::type_group of the message it carries.
enum Layer : std::uint8_t {
  kRbc = 0,
  kMwsvss,
  kSvss,
  kCoin,
  kAba,
  kOther,
  kLayerCount,
};
const char* layer_name(int layer);
Layer layer_of(const svss::Packet& p, bool* batched);
std::uint32_t instance_of(const svss::Packet& p);

struct LayerCounters {
  std::uint64_t ns = 0;
  std::uint64_t pkts = 0;
  std::uint64_t bytes = 0;
  std::uint64_t batched = 0;
};

// One traced Node::on_packet call.  `parent` indexes the root span of the
// agreement instance the packet belongs to (kNoParent when the packet's
// session id names no instance of the current unit, e.g. a cross-instance
// vote envelope).
struct Span {
  std::uint64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint32_t parent = 0;
  std::uint8_t layer = 0;
  std::uint8_t node = 0;
};
inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

// One agreement instance: from the first node starting it to the last
// honest node deciding it.
struct RootSpan {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t unit = 0;
  std::uint32_t instance = 0;
};

class Tracer {
 public:
  // Spans beyond this many are counted, not stored (bounded memory).
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 21;

  // Opens the root spans of a unit's `instances` instances; later record()
  // calls attribute packets of instance k to root (base + k).
  void open_unit(std::uint32_t unit, std::uint32_t instances,
                 std::uint64_t start_ns);
  void record(int node, const svss::Packet& p, std::uint64_t t0,
              std::uint64_t t1);
  void sample_dmm(std::size_t buffered) {
    if (buffered > dmm_buffered_peak) dmm_buffered_peak = buffered;
  }
  RootSpan& root(std::uint32_t instance) {
    return roots[root_base_ + instance];
  }
  [[nodiscard]] std::size_t root_base() const { return root_base_; }
  // For a per-thread tracer: attribute packets to another tracer's open
  // unit, whose root spans start at `root_base`.
  void bind_unit(std::size_t root_base, std::uint32_t instances);
  // Adds a per-thread tracer's counters and spans (its span parents
  // already index this tracer's roots, see bind_unit).
  void merge(Tracer&& o);
  // Writes every root span and stored span to `path` (format in
  // harness.cpp).  Returns false on I/O failure.
  bool write(const std::string& path) const;

  std::array<LayerCounters, kLayerCount> layers{};
  std::uint64_t handler_ns = 0;
  std::size_t dmm_buffered_peak = 0;
  std::vector<Span> spans;
  std::uint64_t spans_dropped = 0;
  std::vector<RootSpan> roots;

 private:
  std::size_t root_base_ = 0;
  std::uint32_t unit_instances_ = 0;
};

// ----------------------------------------------------------------------
// Run accumulators
// ----------------------------------------------------------------------

struct RunStats {
  std::uint64_t attempted = 0;  // instances started
  std::uint64_t decisions = 0;  // instances decided by every honest node
  std::uint64_t failed = 0;
  std::uint64_t units = 0;
  double timed_s = 0;                 // timed phase wall time (no setup)
  // Decisions per second and process CPU ms per decision, one sample per
  // socket unit or per distinct sim unit (read off its BestClock).  The
  // reported figures are their medians, which a burst of host noise over a
  // few units does not move.
  std::vector<double> unit_rate;
  std::vector<double> unit_cpu_ms;
  std::vector<double> setup_s;        // one sample per stack built
  // One sample per decided instance (on sim, per decided instance of each
  // distinct unit, read off its BestClock).
  std::vector<double> latency_ms;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t rounds_sum = 0;       // decision rounds over honest nodes
  std::uint64_t rounds_n = 0;
  std::uint64_t rounds_past_sum = 0;  // current - decision round, honest
  std::uint64_t coin_sessions = 0;    // found by Node::find_coin, honest
  std::uint64_t rbc_instances = 0;    // Rbc::instance_count, honest
  std::uint64_t honest_nodes_x_instances = 0;
  std::uint64_t shun_pairs = 0;       // honest -> anyone, run total
  std::uint64_t cpu_ns = 0;           // process CPU over the timed phase
  std::uint64_t engine_ns = 0;        // wall inside Engine::run_until
  std::uint64_t thread_cpu_ns = 0;    // socket worker threads' CPU
  std::uint64_t out_dropped_frames = 0;
  std::vector<double> append_us;      // DecisionJournal::append incl. fsync
  std::uint64_t instances_per_unit = 1;  // instances one stack runs
  std::uint64_t rss_base_kb = 0;
  Tracer tracer;

  void add_timed(std::uint64_t wall_ns, std::uint64_t cpu) {
    timed_s += static_cast<double>(wall_ns) / 1e9;
    cpu_ns += cpu;
  }
  void note_unit(std::uint64_t decided, std::uint64_t wall_ns,
                 std::uint64_t cpu) {
    add_timed(wall_ns, cpu);
    if (decided == 0 || wall_ns == 0) return;
    unit_rate.push_back(static_cast<double>(decided) /
                        (static_cast<double>(wall_ns) / 1e9));
    unit_cpu_ms.push_back(static_cast<double>(cpu) / 1e6 /
                          static_cast<double>(decided));
  }
};

// Least time per piece of a repeated simulator unit.  A sim unit's
// delivery sequence is a pure function of its seed, so the timed phase is
// cut into pieces of kPieceDeliveries deliveries and piece i of one
// repetition is the same work as piece i of any other.  The clock keeps,
// per piece, the least wall and process CPU time any repetition took, so
// host noise that slowed only some repetitions of a piece drops out.
inline constexpr std::uint64_t kPieceDeliveries = 16384;

class BestClock {
 public:
  // One repetition's piece times.  Returns false if its piece count
  // differs from earlier repetitions' (the unit did not repeat exactly).
  bool merge(const std::vector<std::uint64_t>& wall_ns,
             const std::vector<std::uint64_t>& cpu_ns, std::uint64_t steps);
  // Best wall time from the start of the timed phase to step `step`,
  // prorated by steps within its piece.
  [[nodiscard]] double wall_ns_at(std::uint64_t step) const;
  [[nodiscard]] double wall_ns_total() const { return wall_ns_at(steps_); }
  [[nodiscard]] double cpu_ns_total() const;
  [[nodiscard]] std::uint32_t repetitions() const { return reps_; }

 private:
  std::vector<std::uint64_t> wall_ns_;
  std::vector<std::uint64_t> cpu_ns_;
  std::uint64_t steps_ = 0;
  std::uint32_t reps_ = 0;
};

// Adds one honest node's waste and state counters for instances
// [0, instances) after its unit, read through public accessors only
// (Node::aba, Node::find_coin, Node::rbc().instance_count()).
void read_node_counters(svss::Node& nd, std::uint32_t instances,
                        RunStats& stats);

// ----------------------------------------------------------------------
// Correctness gate
// ----------------------------------------------------------------------

// What one agreement instance produced, as seen by the harness.
struct InstanceOutcome {
  std::uint32_t instance = 0;
  int unanimous = -1;              // honest input if unanimous, else -1
  std::vector<int> decision;       // per node; -1 = undecided
  std::vector<std::uint32_t> round;
  std::uint64_t start_ns = 0;      // first node started it
  std::uint64_t end_ns = 0;        // last honest node decided it
  bool decided = false;            // every honest node decided (gate sets)
};

struct GateContext {
  const Options* opts = nullptr;
  int n = 0;
  int t = 0;
  std::vector<bool> honest;
  std::uint64_t unit_seed = 0;
};

// Checks agreement and validity of every instance and the shun invariants
// of the unit's shun pairs; a violation prints the workload, instance and
// seed and exits the process with status 3.  Returns the number of
// instances some honest node left undecided (they count as failed).
std::uint64_t check_unit(const GateContext& g,
                         std::vector<InstanceOutcome>& outcomes,
                         const std::vector<std::pair<int, int>>& shun_pairs,
                         RunStats& stats);

// Per-instance inputs, stratified so every unit holds the same mix: even
// instances, counting from `first` (so units of one instance alternate),
// get unanimous inputs (value drawn from the seed; validity is checked on
// them), odd ones a floor(n/2) / ceil(n/2) split of ones and zeros at
// positions drawn from the seed.
struct InstanceInputs {
  std::vector<int> input;
  int unanimous = -1;
};
std::vector<InstanceInputs> make_inputs(std::uint64_t unit_seed, int n,
                                        std::uint32_t instances,
                                        std::uint32_t first);

}  // namespace e2e
