// e2ebench — the end-to-end agreement benchmark program (one workload per
// process, so peak RSS and memory growth belong to that workload alone).
//
//   e2ebench --workload <svss-stream|svss-n7-byz|ideal-stream|socket-svss>
//            --seed <n> --seconds <s> [--trace 0|1] [--units <k>]
//            [--spans <file>] [--workdir <dir>] [--tiny]
//            [--forge-disagreement]
//
// Prints one JSON object on stdout: the run's raw counts (which the traced
// run must reproduce exactly on the simulator) and every metric it can
// compute, each as {"value", "unit"}.  Layer metrics are only meaningful
// with --trace 1.  A safety violation exits with status 3 after naming the
// workload, instance and seed on stderr.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using e2e::Options;
using e2e::RunStats;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "e2ebench: %s\n", why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--units") {
      o.units = std::stoull(value());
    } else if (a == "--spans") {
      o.spans_path = value();
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--forge-disagreement") {
      o.forge_disagreement = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload != "svss-stream" && o.workload != "svss-n7-byz" &&
      o.workload != "ideal-stream" && o.workload != "socket-svss") {
    usage("unknown --workload");
  }
  if (o.workload == "socket-svss" && o.workdir.empty()) {
    usage("socket-svss needs --workdir");
  }
  return o;
}

// Median (mean of the two middle values for an even count); 0 for an empty
// sample.  svss-stream latencies rise in steps of one window per stream
// position and its median falls between two steps, where a nearest-rank
// median would flip between them from run to run.
double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

class JsonOut {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    body_ += sep() + "\"" + name + "\": {\"value\": " + num(value) +
             ", \"unit\": \"" + unit + "\"}";
  }
  void field(const std::string& name, double value) {
    body_ += sep() + "\"" + name + "\": " + num(value);
  }
  void raw(const std::string& name, const std::string& json) {
    body_ += sep() + "\"" + name + "\": " + json;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string sep() const { return body_.empty() ? "" : ", "; }
  static std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  std::string body_;
};

std::string report(const Options& o, const RunStats& s) {
  const double dec = static_cast<double>(s.decisions);
  const bool sim = o.workload != "socket-svss";
  const e2e::Tracer& tr = s.tracer;

  JsonOut counts;
  counts.field("decisions", dec);
  counts.field("packets", static_cast<double>(s.packets));
  counts.field("bytes", static_cast<double>(s.bytes));
  counts.field("deliveries", static_cast<double>(s.deliveries));
  counts.field("rounds_sum", static_cast<double>(s.rounds_sum));
  counts.field("shun_pairs", static_cast<double>(s.shun_pairs));

  JsonOut m;
  // End to end.
  m.metric("decisions_per_s", median(s.unit_rate), "1/s");
  m.metric("decide_latency_p50_ms", median(s.latency_ms), "ms");
  m.metric("setup_s", median(s.setup_s), "s");
  m.metric("msgs_per_decision", ratio(static_cast<double>(s.packets), dec),
           "count");
  m.metric("bytes_per_decision", ratio(static_cast<double>(s.bytes), dec),
           "B");
  m.metric("decide_rounds_mean",
           ratio(static_cast<double>(s.rounds_sum),
                 static_cast<double>(s.rounds_n)),
           "rounds");
  m.metric("cpu_ms_per_decision", median(s.unit_cpu_ms), "ms");
  m.metric("peak_rss_mb", static_cast<double>(e2e::peak_rss_kb()) / 1024,
           "MB");
  // Tail latency and failures (the tail is a nearest-rank p90 of the
  // samples counted beside it).
  m.metric("decide_latency_p90_ms", percentile(s.latency_ms, 0.9), "ms");
  m.metric("decide_latency_samples",
           static_cast<double>(s.latency_ms.size()), "count");
  m.metric("failed_frac",
           ratio(static_cast<double>(s.failed),
                 static_cast<double>(s.attempted)),
           "frac");
  // Engine / transport self time.
  double handler_ms = static_cast<double>(tr.handler_ns) / 1e6;
  m.metric("sim.self_ms",
           sim ? ratio(static_cast<double>(s.engine_ns) / 1e6 - handler_ms,
                       dec)
               : 0,
           "ms");
  m.metric("sim.deliveries",
           sim ? ratio(static_cast<double>(s.deliveries), dec) : 0, "count");
  m.metric("net.self_cpu_ms",
           sim ? 0
               : ratio(static_cast<double>(s.thread_cpu_ns) / 1e6 -
                           handler_ms,
                       dec),
           "ms");
  m.metric("net.out_dropped_frames",
           static_cast<double>(s.out_dropped_frames), "count");
  // Protocol layers, by the layer of the delivered packet.
  for (int l : {e2e::kMwsvss, e2e::kSvss, e2e::kCoin, e2e::kAba}) {
    const e2e::LayerCounters& c = tr.layers[static_cast<std::size_t>(l)];
    std::string p = e2e::layer_name(l);
    m.metric(p + ".handler_ms", ratio(static_cast<double>(c.ns) / 1e6, dec),
             "ms");
    m.metric(p + ".pkts", ratio(static_cast<double>(c.pkts), dec), "count");
    m.metric(p + ".bytes", ratio(static_cast<double>(c.bytes), dec), "B");
    m.metric(p + ".batched_share",
             ratio(static_cast<double>(c.batched),
                   static_cast<double>(c.pkts)),
             "frac");
  }
  m.metric("rbc.relay_ms",
           ratio(static_cast<double>(tr.layers[e2e::kRbc].ns) / 1e6, dec),
           "ms");
  m.metric("rbc.instances", ratio(static_cast<double>(s.rbc_instances), dec),
           "count");
  m.metric("dmm.buffered_peak", static_cast<double>(tr.dmm_buffered_peak),
           "count");
  m.metric("dmm.shun_pairs", static_cast<double>(s.shun_pairs), "count");
  // Post-decision waste.
  double hxi = static_cast<double>(s.honest_nodes_x_instances);
  m.metric("aba.rounds_past_decision",
           ratio(static_cast<double>(s.rounds_past_sum), hxi), "rounds");
  m.metric("coin.rounds_started",
           ratio(static_cast<double>(s.coin_sessions), hxi), "count");
  m.metric("coin.useful_frac",
           ratio(static_cast<double>(s.rounds_sum),
                 static_cast<double>(s.coin_sessions)),
           "frac");
  m.metric("recovery.append_us_p50", median(s.append_us), "us");
  m.metric("recovery.append_us_p90", percentile(s.append_us, 0.9), "us");
  double grown = static_cast<double>(e2e::peak_rss_kb()) -
                 static_cast<double>(s.rss_base_kb);
  m.metric("mem.kb",
           ratio(std::max(grown, 0.0),
                 static_cast<double>(s.instances_per_unit)),
           "KB");

  JsonOut top;
  top.raw("workload", "\"" + o.workload + "\"");
  top.field("seed", static_cast<double>(o.seed));
  top.field("trace", o.trace ? 1 : 0);
  top.field("units", static_cast<double>(s.units));
  top.field("timed_s", s.timed_s);
  top.field("attempted", static_cast<double>(s.attempted));
  top.field("failed", static_cast<double>(s.failed));
  top.field("spans", static_cast<double>(tr.spans.size()));
  top.field("spans_dropped", static_cast<double>(tr.spans_dropped));
  top.raw("counts", counts.str());
  top.raw("metrics", m.str());
  return top.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);
  // net::SocketTransport writes without MSG_NOSIGNAL, so a node flushing to
  // a peer that already closed (cluster teardown) would die of SIGPIPE.
  // Ignore it, as a daemon does; the write then fails with EPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  RunStats stats = o.workload == "socket-svss" ? e2e::run_socket_workload(o)
                                               : e2e::run_sim_workload(o);
  if (o.trace && !o.spans_path.empty() && !stats.tracer.write(o.spans_path)) {
    std::fprintf(stderr, "e2ebench: cannot write spans to %s\n",
                 o.spans_path.c_str());
    return 2;
  }
  std::printf("%s\n", report(o, stats).c_str());
  return 0;
}
