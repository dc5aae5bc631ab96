// The benchmark's workloads. One call runs one round: set-up, the timed
// phase, clean-up to the removal fixpoint, and the output check. A run
// repeats rounds (each with its own seed derived from the run's seed)
// until its time is up.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mirror.hpp"
#include "tracer.hpp"
#include "workload/ops.hpp"

namespace perfbench {

enum class Workload : std::uint8_t {
  kSteadyChurn,
  kCyclicTeardown,
  kLossyHandoff,
  kThreadedChurn,
};

[[nodiscard]] bool parse_workload(const std::string& name, Workload& out);
[[nodiscard]] const char* workload_name(Workload w);

/// The check of one known-fault round (README "Known faults").
struct FaultOutcome {
  const char* name;
  Check check;
  std::uint64_t ops = 0;
};

struct RoundResult {
  Check check;
  std::string failure;  // non-empty when the round's output check failed
  std::uint64_t attempted = 0;  // every mutator op the round issued
  /// Ops the program skipped, and the ops of known-fault rounds whose
  /// check failed.
  std::uint64_t failed = 0;
  std::uint64_t timed_ops = 0;  // ops applied in the timed phase
  double setup_s = 0;
  double program_s = 0;  // timed phase: wall time inside program calls
  std::uint64_t reclaimed = 0;
  std::vector<SimTime> latencies;
  SimTime drain_ticks = 0;
  std::uint64_t ctrl_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::vector<std::int64_t> slice_ns;
  std::uint64_t log_entries = 0;
  std::uint64_t live = 0;
  /// Highest resident set sampled during the round (heap returned to the
  /// system between rounds, so each round's peak is its own).
  double peak_rss_mb = 0;
  /// Per-layer values of this round, by metric name (traced rounds fill
  /// the span-derived ones too).
  std::vector<std::pair<std::string, double>> layer;
  std::vector<FaultOutcome> faults;

  [[nodiscard]] bool ok() const { return failure.empty(); }
};

/// Every `kFaultGroup`-th round of a run also runs its workload's
/// known-fault rounds; a run ends on a whole group.
inline constexpr std::uint64_t kFaultGroup = 8;

/// Runs one round of `w` with inputs derived from `seed`. With `tracing`,
/// spans and the collector's metrics registry are recorded; with `ops`,
/// every mutator op issued is appended there (the legality self-test);
/// `small` shrinks the round for the self-tests; `with_faults` appends the
/// workload's known-fault rounds.
RoundResult run_round(Workload w, std::uint64_t seed, Tracer& tracer,
                      std::vector<cgc::MutatorOp>* ops = nullptr,
                      bool small = false, bool with_faults = false);

/// Runs each known-fault round's shape on seeds 1..`limit` and lists the
/// first seeds whose check fails, one line per fault round.
std::string find_fault_seeds(std::uint64_t limit);

/// Self-test: generated ops at a small size all pass
/// ReachabilityOracle::apply, and the output check rejects a removed set
/// with one garbage process missing and one live process added. Returns
/// an empty string on success, else what failed.
std::string self_test();

}  // namespace perfbench
