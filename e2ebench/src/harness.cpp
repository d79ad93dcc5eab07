#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/rng.hpp"
#include "sim/metrics.hpp"

namespace e2e {

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t rss_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                          std::uint64_t index) {
  svss::Rng r(seed ^ (purpose * 0xD1B54A32D192ED03ULL));
  return r.split(index).next_u64();
}

bool fits_another(std::uint64_t started_ns, std::uint64_t steps,
                  double seconds) {
  double elapsed = static_cast<double>(now_ns() - started_ns) / 1e9;
  return elapsed + elapsed / static_cast<double>(steps) <= seconds;
}

// ----------------------------------------------------------------------
// Layers
// ----------------------------------------------------------------------

const char* layer_name(int layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "rbc", "mwsvss", "svss", "coin", "aba", "other"};
  return kNames[layer];
}

Layer layer_of(const svss::Packet& p, bool* batched) {
  *batched = false;
  if (p.is_rb && p.phase != svss::RbPhase::kReady) return kRbc;
  svss::MsgType type = p.is_rb ? p.bid.slot : p.app.type;
  std::string_view group = svss::Metrics::type_group(type, batched);
  if (group == "mw-rb" || group == "mw-direct") return kMwsvss;
  if (group == "svss-deal" || group == "svss-gset") return kSvss;
  if (group == "coin") return kCoin;
  if (group == "aba") return kAba;
  return kOther;
}

std::uint32_t instance_of(const svss::Packet& p) {
  return p.is_rb ? p.bid.sid.instance : p.app.sid.instance;
}

// ----------------------------------------------------------------------
// Tracer
// ----------------------------------------------------------------------

void Tracer::open_unit(std::uint32_t unit, std::uint32_t instances,
                       std::uint64_t start_ns) {
  root_base_ = roots.size();
  unit_instances_ = instances;
  for (std::uint32_t k = 0; k < instances; ++k) {
    roots.push_back(RootSpan{start_ns, 0, unit, k});
  }
}

void Tracer::record(int node, const svss::Packet& p, std::uint64_t t0,
                    std::uint64_t t1) {
  bool batched = false;
  Layer layer = layer_of(p, &batched);
  std::uint64_t dur = t1 - t0;
  LayerCounters& c = layers[layer];
  c.ns += dur;
  c.pkts += 1;
  c.bytes += p.wire_size();
  if (batched) c.batched += 1;
  handler_ns += dur;
  if (spans.size() >= kMaxSpans) {
    ++spans_dropped;
    return;
  }
  std::uint32_t inst = instance_of(p);
  Span s;
  s.start_ns = t0;
  s.dur_ns = static_cast<std::uint32_t>(std::min<std::uint64_t>(dur, ~0u));
  s.parent = inst < unit_instances_
                 ? static_cast<std::uint32_t>(root_base_ + inst)
                 : kNoParent;
  s.layer = layer;
  s.node = static_cast<std::uint8_t>(node);
  spans.push_back(s);
}

void Tracer::bind_unit(std::size_t root_base, std::uint32_t instances) {
  root_base_ = root_base;
  unit_instances_ = instances;
}

void Tracer::merge(Tracer&& o) {
  for (int l = 0; l < kLayerCount; ++l) {
    layers[l].ns += o.layers[l].ns;
    layers[l].pkts += o.layers[l].pkts;
    layers[l].bytes += o.layers[l].bytes;
    layers[l].batched += o.layers[l].batched;
  }
  handler_ns += o.handler_ns;
  dmm_buffered_peak = std::max(dmm_buffered_peak, o.dmm_buffered_peak);
  for (const Span& s : o.spans) {
    if (spans.size() >= kMaxSpans) {
      ++spans_dropped;
      continue;
    }
    spans.push_back(s);
  }
  spans_dropped += o.spans_dropped;
}

// Span file layout (little-endian, native struct packing of the x86-64
// build): "E2ESPAN1", u64 root count, RootSpan[roots], u64 span count,
// Span[spans].  Span::parent indexes the RootSpan array.
bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::uint64_t nroots = roots.size();
  std::uint64_t nspans = spans.size();
  bool ok = std::fwrite("E2ESPAN1", 1, 8, f) == 8 &&
            std::fwrite(&nroots, sizeof nroots, 1, f) == 1 &&
            std::fwrite(roots.data(), sizeof(RootSpan), roots.size(), f) ==
                roots.size() &&
            std::fwrite(&nspans, sizeof nspans, 1, f) == 1 &&
            std::fwrite(spans.data(), sizeof(Span), spans.size(), f) ==
                spans.size();
  return std::fclose(f) == 0 && ok;
}

void read_node_counters(svss::Node& nd, std::uint32_t instances,
                        RunStats& stats) {
  stats.rbc_instances += nd.rbc().instance_count();
  for (std::uint32_t k = 0; k < instances; ++k) {
    const svss::AbaSession* a = nd.aba(k);
    if (a == nullptr) continue;
    stats.honest_nodes_x_instances += 1;
    if (a->decided()) {
      stats.rounds_past_sum += a->current_round() - a->decision_round();
    }
    for (std::uint32_t r = 1; r <= a->current_round() + 1; ++r) {
      if (nd.find_coin(k, r) != nullptr) stats.coin_sessions += 1;
    }
  }
}

// ----------------------------------------------------------------------
// BestClock
// ----------------------------------------------------------------------

bool BestClock::merge(const std::vector<std::uint64_t>& wall_ns,
                      const std::vector<std::uint64_t>& cpu_ns,
                      std::uint64_t steps) {
  if (reps_ == 0) {
    wall_ns_ = wall_ns;
    cpu_ns_ = cpu_ns;
    steps_ = steps;
  } else {
    if (steps != steps_ || wall_ns.size() != wall_ns_.size()) return false;
    for (std::size_t i = 0; i < wall_ns_.size(); ++i) {
      wall_ns_[i] = std::min(wall_ns_[i], wall_ns[i]);
      cpu_ns_[i] = std::min(cpu_ns_[i], cpu_ns[i]);
    }
  }
  ++reps_;
  return true;
}

double BestClock::wall_ns_at(std::uint64_t step) const {
  double t = 0;
  std::uint64_t first = 0;  // first step of piece i
  for (std::size_t i = 0; i < wall_ns_.size() && first < step; ++i) {
    std::uint64_t len = std::min(kPieceDeliveries, steps_ - first);
    std::uint64_t part = std::min(len, step - first);
    t += static_cast<double>(wall_ns_[i]) * static_cast<double>(part) /
         static_cast<double>(std::max<std::uint64_t>(len, 1));
    first += len;
  }
  return t;
}

double BestClock::cpu_ns_total() const {
  double t = 0;
  for (std::uint64_t c : cpu_ns_) t += static_cast<double>(c);
  return t;
}

// ----------------------------------------------------------------------
// Correctness gate
// ----------------------------------------------------------------------

namespace {

[[noreturn]] void violation(const GateContext& g, std::uint32_t instance,
                            const std::string& what) {
  std::fprintf(stderr,
               "SAFETY VIOLATION: workload=%s instance=%u seed=%llu "
               "unit_seed=%llu: %s\n",
               g.opts->workload.c_str(), instance,
               static_cast<unsigned long long>(g.opts->seed),
               static_cast<unsigned long long>(g.unit_seed), what.c_str());
  std::exit(3);
}

}  // namespace

std::uint64_t check_unit(const GateContext& g,
                         std::vector<InstanceOutcome>& outcomes,
                         const std::vector<std::pair<int, int>>& shun_pairs,
                         RunStats& stats) {
  if (g.opts->forge_disagreement && !outcomes.empty()) {
    // Gate self-test: a forged disagreement must trip the check below.
    for (int i = 0; i < g.n; ++i) {
      if (g.honest[static_cast<std::size_t>(i)]) {
        int& d = outcomes.front().decision[static_cast<std::size_t>(i)];
        if (d >= 0) d ^= 1;
        break;
      }
    }
  }
  std::uint64_t failed = 0;
  for (InstanceOutcome& o : outcomes) {
    int value = -1;
    bool all = true;
    for (int i = 0; i < g.n; ++i) {
      if (!g.honest[static_cast<std::size_t>(i)]) continue;
      int d = o.decision[static_cast<std::size_t>(i)];
      if (d < 0) {
        all = false;
        continue;
      }
      if (value < 0) value = d;
      if (d != value) {
        violation(g, o.instance,
                  "agreement: honest nodes decided different values");
      }
    }
    if (value >= 0 && o.unanimous >= 0 && value != o.unanimous) {
      violation(g, o.instance,
                "validity: unanimous honest input " +
                    std::to_string(o.unanimous) + " but decided " +
                    std::to_string(value));
    }
    if (!all) {
      ++failed;
      continue;
    }
    stats.decisions += 1;
    o.decided = true;
    for (int i = 0; i < g.n; ++i) {
      if (!g.honest[static_cast<std::size_t>(i)]) continue;
      stats.rounds_sum += o.round[static_cast<std::size_t>(i)];
      stats.rounds_n += 1;
    }
  }
  std::set<std::pair<int, int>> honest_pairs;
  for (const auto& [i, j] : shun_pairs) {
    if (!g.honest[static_cast<std::size_t>(i)]) continue;
    if (g.honest[static_cast<std::size_t>(j)]) {
      violation(g, 0,
                "honest node " + std::to_string(i) + " shuns honest node " +
                    std::to_string(j));
    }
    honest_pairs.emplace(i, j);
  }
  if (honest_pairs.size() > static_cast<std::size_t>(g.t * (g.n - g.t))) {
    violation(g, 0,
              "shun budget: " + std::to_string(honest_pairs.size()) +
                  " honest shun pairs > t(n-t)");
  }
  stats.shun_pairs += honest_pairs.size();
  stats.attempted += outcomes.size();
  stats.failed += failed;
  return failed;
}

std::vector<InstanceInputs> make_inputs(std::uint64_t unit_seed, int n,
                                        std::uint32_t instances,
                                        std::uint32_t first) {
  svss::Rng r(derive_seed(unit_seed, 0x1A9u, 0));
  std::vector<InstanceInputs> out(instances);
  for (std::uint32_t k = 0; k < instances; ++k) {
    InstanceInputs& in = out[k];
    in.input.resize(static_cast<std::size_t>(n));
    if ((first + k) % 2 == 0) {
      in.unanimous = r.next_bool() ? 1 : 0;
      for (int& v : in.input) v = in.unanimous;
      continue;
    }
    // Split inputs: floor(n/2) ones at random positions (Fisher-Yates).
    for (int i = 0; i < n; ++i) {
      in.input[static_cast<std::size_t>(i)] = i < n / 2 ? 1 : 0;
    }
    for (int i = n - 1; i > 0; --i) {
      auto j = static_cast<std::size_t>(
          r.next_below(static_cast<std::uint64_t>(i) + 1));
      std::swap(in.input[static_cast<std::size_t>(i)], in.input[j]);
    }
  }
  return out;
}

}  // namespace e2e
