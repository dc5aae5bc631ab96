// Spans and call timing recorded by the benchmark around its own calls
// into the collector.
//
// Every call into the program goes through `Tracer::call`, which always
// adds the call's wall time to its layer's busy total (that sum is the
// "timed program time" the end-to-end rates divide by) and, in traced
// rounds only, also appends a span. Benchmark phases (set-up, churn,
// clean-up, check) open parent spans with `Tracer::Phase`, so a layer's
// self time is its spans' duration minus the part its child spans cover:
// a phase's self time is the benchmark's own work (op generation, the
// reachability mirror, the output check).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kRound,       // one whole round (benchmark code)
  kSetup,       // benchmark phases ...
  kChurn,
  kCleanup,
  kCheck,
  kMutator,     // GgdEngine mutator entry points
  kSimRun,      // Simulator::run / run_until: delivery, decode, decisions
  kSweep,       // GgdEngine::sweep_slice
  kComputeV,    // GgdProcess::compute_v probe
  kThreaded,    // runtime_mt::run_threaded
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {"round",    "setup",   "churn",     "cleanup",
                   "check",    "ggd.mutator", "sim.run", "ggd.sweep_slice",
                   "ggd.compute_v", "runtime_mt.run_threaded"};

[[nodiscard]] inline bool is_program(Layer l) {
  return l == Layer::kMutator || l == Layer::kSimRun || l == Layer::kSweep ||
         l == Layer::kComputeV || l == Layer::kThreaded;
}

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer = Layer::kRound;
  std::uint32_t parent = kNoParent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
};

class Tracer {
 public:
  explicit Tracer(bool tracing) : tracing_(tracing) {}

  [[nodiscard]] bool tracing() const { return tracing_; }

  /// Times one call into the program under `layer`.
  template <typename F>
  void call(Layer layer, F&& f) {
    const std::int64_t t0 = now_ns();
    f();
    const std::int64_t t1 = now_ns();
    const auto i = static_cast<std::size_t>(layer);
    totals_.busy_ns[i] += t1 - t0;
    ++totals_.calls[i];
    if (layer == Layer::kSweep) {
      slice_ns_.push_back(t1 - t0);
    }
    if (tracing_) {
      spans_.push_back(Span{layer, open_, t0, t1});
    }
  }

  /// A benchmark phase: parent span of every call made while it is open.
  class Phase {
   public:
    Phase(Tracer& t, Layer layer) : t_(t), saved_(t.open_) {
      if (t_.tracing_) {
        index_ = static_cast<std::uint32_t>(t_.spans_.size());
        t_.spans_.push_back(Span{layer, saved_, now_ns(), 0});
        t_.open_ = index_;
      }
    }
    ~Phase() {
      if (t_.tracing_) {
        t_.spans_[index_].end_ns = now_ns();
        t_.open_ = saved_;
      }
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

   private:
    Tracer& t_;
    std::uint32_t saved_;
    std::uint32_t index_ = Span::kNoParent;
  };

  /// Busy time and call count per layer, summed since the round began.
  struct Totals {
    std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> busy_ns{};
    std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> calls{};

    [[nodiscard]] std::int64_t busy(Layer l) const {
      return busy_ns[static_cast<std::size_t>(l)];
    }
    [[nodiscard]] std::uint64_t count(Layer l) const {
      return calls[static_cast<std::size_t>(l)];
    }
    /// Wall time spent inside program calls (every layer but compute_v,
    /// which is a probe taken after the timed phase).
    [[nodiscard]] std::int64_t program_ns() const {
      std::int64_t n = 0;
      for (std::size_t i = 0; i < busy_ns.size(); ++i) {
        if (is_program(static_cast<Layer>(i)) &&
            static_cast<Layer>(i) != Layer::kComputeV) {
          n += busy_ns[i];
        }
      }
      return n;
    }
    /// What was added since `base`.
    [[nodiscard]] Totals since(const Totals& base) const {
      Totals d;
      for (std::size_t i = 0; i < busy_ns.size(); ++i) {
        d.busy_ns[i] = busy_ns[i] - base.busy_ns[i];
        d.calls[i] = calls[i] - base.calls[i];
      }
      return d;
    }
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }
  [[nodiscard]] const std::vector<std::int64_t>& slice_ns() const {
    return slice_ns_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer over the recorded spans: each span's duration
  /// minus the durations of its direct children.
  [[nodiscard]] std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)>
  self_ns() const {
    std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self{};
    for (const Span& s : spans_) {
      const std::int64_t d = s.end_ns - s.start_ns;
      self[static_cast<std::size_t>(s.layer)] += d;
      if (s.parent != Span::kNoParent) {
        self[static_cast<std::size_t>(spans_[s.parent].layer)] -= d;
      }
    }
    return self;
  }

  /// Writes at most `limit` spans as a Chrome trace-event array (loads in
  /// Perfetto / chrome://tracing).
  void write_chrome_json(const std::string& path, std::size_t limit) const {
    std::ofstream os(path);
    if (!os) {
      return;
    }
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    os << "[";
    const std::size_t n = std::min(limit, spans_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "{\"name\":\""
         << kLayerNames[static_cast<std::size_t>(s.layer)]
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << static_cast<double>(s.start_ns - base) / 1e3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
         << ",\"args\":{\"id\":" << i << ",\"parent\":"
         << (s.parent == Span::kNoParent ? -1 : static_cast<long>(s.parent))
         << "}}";
    }
    os << "\n]\n";
  }

 private:
  bool tracing_;
  std::uint32_t open_ = Span::kNoParent;
  Totals totals_;
  std::vector<std::int64_t> slice_ns_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
