// perfbench: the collector's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
//   perfbench --find-fault-seeds LIMIT
//
// Runs rounds of one workload until S seconds have passed (see
// workloads.hpp), checks every round's removed set against the
// benchmark's own reachability computation, and prints one JSON object as
// the last line of standard output:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 rounds alternate untraced and traced on the
// same round seed; the traced rounds give the per-layer metrics (spans,
// the collector's metrics registry, the compute_v probe) and each pair
// gives the tracing overhead. --spans writes the first traced round's
// spans as a Chrome trace-event file. --find-fault-seeds lists seeds on
// which the known-fault rounds' checks fail (README "Known faults").
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kSteadyChurn;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  std::uint64_t find_fault_seeds = 0;
};

bool parse_args(int argc, char** argv, Args& a, std::string& err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    if (flag == "--workload") {
      if (!parse_workload(v, a.workload)) {
        err = "unknown workload " + v;
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans = v;
    } else if (flag == "--find-fault-seeds") {
      a.find_fault_seeds = std::stoull(v);
      return true;
    } else {
      err = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) {
    err = "--workload is required";
  }
  return have_workload;
}

/// SplitMix64 step: independent round seeds from the run's seed.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (round + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
template <typename T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

/// The tail percentile each sample family reports: the highest percentile
/// with at least ten samples beyond it in every run (README "Metrics").
constexpr double kLatencyTailPct = 99;
constexpr double kPauseTailPct = 90;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> end_to_end(Workload w,
                               const std::vector<RoundResult>& rounds) {
  std::vector<double> setup;
  std::vector<double> rss;
  double program_s = 0;
  double drain = 0;
  std::vector<SimTime> latency;
  std::vector<double> pauses_us;
  double ctrl = 0;
  double wire = 0;
  double reclaimed = 0;
  double ops = 0;
  double log_entries = 0;
  double live = 0;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
    program_s += r.program_s;
    drain += static_cast<double>(r.drain_ticks);
    latency.insert(latency.end(), r.latencies.begin(), r.latencies.end());
    for (std::int64_t ns : r.slice_ns) {
      pauses_us.push_back(static_cast<double>(ns) / 1e3);
    }
    ctrl += static_cast<double>(r.ctrl_bytes);
    wire += static_cast<double>(r.wire_bytes);
    reclaimed += static_cast<double>(r.reclaimed);
    ops += static_cast<double>(r.timed_ops);
    log_entries += static_cast<double>(r.log_entries);
    live += static_cast<double>(r.live);
  }
  std::vector<Metric> m;
  m.push_back({"setup_s", median(setup), "s"});
  m.push_back({"ops_per_s", ops / program_s, "ops/s"});
  m.push_back({"wire_bytes_per_op", wire / ops, "B"});
  m.push_back({"peak_rss_mb", median(rss), "MB"});
  if (w == Workload::kThreadedChurn) {
    // The named fault leaves this workload without garbage, removals,
    // sweep slices it can observe or a simulated clock: the reclaim-side
    // metrics cannot be produced and are left out rather than read as 0.
    return m;
  }
  m.push_back({"reclaimed_per_s", reclaimed / program_s, "processes/s"});
  m.push_back({"reclaim_latency_p50_ticks", percentile(latency, 50), "ticks"});
  m.push_back({"reclaim_latency_tail_ticks",
               percentile(latency, kLatencyTailPct), "ticks"});
  m.push_back({"drain_ticks", drain / static_cast<double>(rounds.size()),
               "ticks"});
  m.push_back({"ctrl_bytes_per_reclaimed", ctrl / reclaimed, "B"});
  m.push_back({"sweep_pause_p50_us", percentile(pauses_us, 50), "us"});
  m.push_back({"sweep_pause_tail_us", percentile(pauses_us, kPauseTailPct),
               "us"});
  m.push_back({"log_entries_per_live", log_entries / live, "entries"});
  return m;
}

/// Units of the per-layer metrics, by name prefix/suffix.
const char* layer_unit(const std::string& name) {
  const auto ends = [&](const char* s) {
    const std::size_t n = std::strlen(s);
    return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
  };
  if (name.rfind("self_ms.", 0) == 0) return "ms";
  if (ends("_us") || ends("_us_per_op") || ends("_us_total")) return "us";
  if (ends("_kb")) return "KB";
  if (ends("_bytes") || name.rfind("wire.bytes.", 0) == 0) return "B";
  if (ends("_ratio") || ends("msgs_per_packet")) return "ratio";
  if (ends("_per_s")) return "1/s";
  if (ends("_pct")) return "%";
  return "count";
}

std::vector<Metric> per_layer(const std::vector<RoundResult>& traced,
                              const std::vector<double>& overhead_pct) {
  std::map<std::string, double> sum;
  std::vector<std::string> order;
  for (const RoundResult& r : traced) {
    for (const auto& [name, value] : r.layer) {
      if (!sum.contains(name)) {
        order.push_back(name);
      }
      sum[name] += value;
    }
  }
  std::vector<Metric> m;
  for (const std::string& name : order) {
    m.push_back({name, sum[name] / static_cast<double>(traced.size()),
                 layer_unit(name)});
  }
  m.push_back({"trace.overhead_pct", median(overhead_pct), "%"});
  return m;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string err;
  if (!parse_args(argc, argv, args, err)) {
    std::cerr << "perfbench: " << err << '\n';
    return 2;
  }
  if (args.find_fault_seeds > 0) {
    std::cout << find_fault_seeds(args.find_fault_seeds);
    return 0;
  }
  const std::int64_t start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - start) / 1e9;
  };

  bool correct = true;
  const std::string self = self_test();
  if (!self.empty()) {
    std::cerr << "self-test failed: " << self << '\n';
    correct = false;
  }

  std::vector<RoundResult> plain;
  std::vector<RoundResult> traced;
  std::vector<double> overhead_pct;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool spans_written = false;
  for (std::uint64_t round = 0;; ++round) {
    // Trace mode runs pairs: the untraced and the traced round share a seed.
    const bool tracing = args.trace && round % 2 == 1;
    const std::uint64_t step = args.trace ? round / 2 : round;
    const std::uint64_t seed = round_seed(args.seed, step);
    const bool group_end = (step + 1) % kFaultGroup == 0;
    Tracer tracer(tracing);
    RoundResult r = run_round(args.workload, seed, tracer, nullptr,
                              /*small=*/false, /*with_faults=*/group_end);
    // Hand the round's freed heap back so the next round's resident-set
    // peak is its own.
    malloc_trim(0);
    attempted += r.attempted;
    failed += r.failed;
    std::cerr << workload_name(args.workload) << " round " << round
              << (tracing ? " traced" : "") << ": setup_s=" << r.setup_s
              << " program_s=" << r.program_s << " ops=" << r.timed_ops
              << " reclaimed=" << r.reclaimed << " failed=" << r.failed
              << " drain=" << r.drain_ticks
              << " lat_p99=" << percentile(r.latencies, kLatencyTailPct)
              << " check{" << r.check.describe() << "}";
    for (const FaultOutcome& f : r.faults) {
      std::cerr << " fault_round{" << f.name << " ops=" << f.ops
                << (f.check.ok() ? " passed" : " failed") << ": "
                << f.check.describe() << "}";
    }
    std::cerr << '\n';
    if (!r.ok()) {
      std::cerr << "round " << round << " output check failed: " << r.failure
                << '\n';
      correct = false;
    }
    if (tracing) {
      if (!spans_written && !args.spans.empty()) {
        tracer.write_chrome_json(args.spans, 20'000);
        spans_written = true;
      }
      overhead_pct.push_back(
          (r.program_s / plain.back().program_s - 1.0) * 100.0);
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
    }
    // Stop on a whole group (and, in trace mode, a whole pair), so every
    // run attempts whole groups of the same ops.
    const bool whole_pair = !args.trace || tracing;
    if (elapsed_s() >= args.seconds && whole_pair && group_end) {
      break;
    }
  }

  const std::vector<Metric> metrics =
      args.trace ? per_layer(traced, overhead_pct)
                 : end_to_end(args.workload, plain);
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}
