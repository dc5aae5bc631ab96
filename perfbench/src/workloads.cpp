#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <thread>

#include "common/rng.hpp"
#include "ggd/engine.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "oracle/reachability_oracle.hpp"
#include "runtime_mt/harness.hpp"
#include "scenario/spec.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using cgc::GgdEngine;
using cgc::MessageKind;
using cgc::MutatorOp;
using cgc::Rng;
using cgc::Simulator;
using cgc::SiteId;

namespace {

ProcessId pid(std::uint32_t p) { return ProcessId{p}; }

/// Resident set of this process in kB (second field of /proc/self/statm).
std::uint64_t current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

/// The message kinds the per-layer wire metrics break out.
constexpr std::pair<MessageKind, const char*> kWireKinds[] = {
    {MessageKind::kReferencePass, "reference_pass"},
    {MessageKind::kGgdVector, "ggd_vector"},
    {MessageKind::kGgdDestruction, "ggd_destruction"},
    {MessageKind::kGgdInquiry, "ggd_inquiry"},
};

void add_wire_metrics(RoundResult& r, const cgc::MessageStats& s) {
  r.layer.emplace_back("wire.packets", s.packets().sent);
  r.layer.emplace_back("wire.msgs_per_packet",
                       s.packets().sent == 0
                           ? 0.0
                           : static_cast<double>(s.total_sent()) /
                                 static_cast<double>(s.packets().sent));
  for (const auto& [kind, name] : kWireKinds) {
    r.layer.emplace_back(std::string("wire.bytes.") + name,
                         s.of(kind).bytes_sent);
    r.layer.emplace_back(std::string("wire.msgs.") + name, s.of(kind).sent);
  }
}

void add_self_times(RoundResult& r, const Tracer& tr) {
  if (!tr.tracing()) {
    return;
  }
  const auto self = tr.self_ns();
  const auto ms = [&](Layer l) {
    return static_cast<double>(self[static_cast<std::size_t>(l)]) / 1e6;
  };
  r.layer.emplace_back("self_ms.bench",
                       ms(Layer::kRound) + ms(Layer::kSetup) +
                           ms(Layer::kChurn) + ms(Layer::kCleanup) +
                           ms(Layer::kCheck));
  if (tr.totals().count(Layer::kThreaded) > 0) {
    r.layer.emplace_back("self_ms.runtime_mt", ms(Layer::kThreaded));
  } else {
    r.layer.emplace_back("self_ms.ggd_mutator", ms(Layer::kMutator));
    r.layer.emplace_back("self_ms.sim_run", ms(Layer::kSimRun));
    r.layer.emplace_back("self_ms.ggd_sweep", ms(Layer::kSweep));
    r.layer.emplace_back("self_ms.ggd_compute_v", ms(Layer::kComputeV));
  }
  r.layer.emplace_back("trace.spans", static_cast<double>(tr.spans().size()));
}

/// Relative weights of the churn mix, as cumulative percentages.
struct Mix {
  std::uint64_t create = 30;      // [0, create): create
  std::uint64_t intro = 50;       // [create, intro): self-introduction
  std::uint64_t forward = 70;     // [intro, forward): third-party forward
  std::uint64_t handoff = 70;     // [forward, handoff): hand-off of the actor
  /// [handoff, 100): sever a held reference.
};

struct SimShape {
  std::uint64_t sites = 16;
  std::uint64_t roots = 16;
  std::uint32_t population = 250;   // churn set point
  std::uint64_t setup_ops = 352;    // set-up ops after the roots
  std::uint64_t churn_ops = 512;
  std::uint64_t batch = 32;         // ops between simulator drains
  std::uint64_t sweep_every = 4;    // batches between sweep rounds
  /// 0: the simulator drains after every batch (a paced mutator). Else the
  /// next batch is issued `batch_ticks` simulated ticks later with traffic
  /// still in flight, and every batch is followed by one sweep slice.
  SimTime batch_ticks = 0;
  Mix mix;
  double duplicate_rate = 0;        // during churn only
  double drop_rate = 0;             // during churn only
  /// The mix may re-grant a severed pair and forward a process the
  /// forwarder introduced itself to (README "Known faults").
  bool fault_shapes = false;
};

/// One simulator-engine round: the engine, the network it runs on, the
/// benchmark's mirror, and the legal op generator.
class SimRound {
 public:
  SimRound(std::uint64_t sites, std::uint64_t seed, Tracer& tr,
           std::vector<MutatorOp>* log, bool lossy = false,
           bool fault_shapes = false)
      : sim_(&sim_pool_),
        net_(sim_, cgc::NetworkConfig{.min_latency = 1,
                                      .max_latency = 3,
                                      .drop_rate = 0,
                                      .duplicate_rate = 0,
                                      .seed = seed ^ 0x5eedULL}),
        eng_(net_),
        mirror_(lossy),
        rng_(seed),
        tr_(tr),
        log_(log),
        sites_(sites),
        fault_shapes_(fault_shapes) {
    eng_.set_on_ref_delivered([this](ProcessId holder, ProcessId target) {
      mirror_.deliver(static_cast<std::uint32_t>(holder.value()),
                      static_cast<std::uint32_t>(target.value()));
    });
    eng_.set_on_removed([this](ProcessId p) {
      mirror_.on_removed(static_cast<std::uint32_t>(p.value()), sim_.now());
    });
  }

  // -- Mutator ops: each updates the mirror and calls the engine once. ---

  std::uint32_t add_root() {
    last_op_at_ = sim_.now();
    const std::uint32_t id = mirror_.add(/*root=*/true);
    tr_.call(Layer::kMutator,
             [&] { eng_.add_process(pid(id), site_for(id), /*is_root=*/true); });
    log({MutatorOp::Kind::kAddRoot, pid(id), {}, {}});
    return id;
  }
  std::uint32_t create(std::uint32_t creator) {
    last_op_at_ = sim_.now();
    const std::uint32_t id = mirror_.add(/*root=*/false);
    tr_.call(Layer::kMutator, [&] {
      eng_.create_object(pid(creator), pid(id), site_for(id));
    });
    mirror_.issue(creator, id);
    log({MutatorOp::Kind::kCreate, pid(id), pid(creator), {}});
    return id;
  }
  /// `i` sends its own reference to `j` (edge j -> i).
  void intro(std::uint32_t i, std::uint32_t j) {
    last_op_at_ = sim_.now();
    tr_.call(Layer::kMutator, [&] { eng_.send_own_ref(pid(i), pid(j)); });
    mirror_.introduce(i, j);
    log({MutatorOp::Kind::kLinkOwn, pid(i), pid(j), {}});
  }
  /// `i` forwards its reference to `k` to `j` (edge j -> k).
  void forward(std::uint32_t i, std::uint32_t k, std::uint32_t j) {
    last_op_at_ = sim_.now();
    tr_.call(Layer::kMutator,
             [&] { eng_.send_third_party_ref(pid(i), pid(k), pid(j)); });
    mirror_.issue(j, k);
    log({MutatorOp::Kind::kLinkThird, pid(i), pid(j), pid(k)});
  }
  void drop(std::uint32_t j, std::uint32_t k) {
    last_op_at_ = sim_.now();
    tr_.call(Layer::kMutator, [&] { eng_.drop_ref(pid(j), pid(k)); });
    mirror_.drop(j, k, sim_.now());
    log({MutatorOp::Kind::kDrop, pid(j), pid(k), {}});
  }
  /// Cross-site hand-off of `p` to `dst`.
  void handoff(std::uint32_t p, SiteId dst) {
    last_op_at_ = sim_.now();
    bool started = false;
    tr_.call(Layer::kMutator, [&] { started = eng_.migrate(pid(p), dst); });
    CGC_CHECK_MSG(started, "hand-off refused");
    log({MutatorOp::Kind::kMigrate, pid(p), {}, {}, dst});
  }
  /// Drains the simulator, then re-derives the legal actors.
  void run() {
    tr_.call(Layer::kSimRun, [&] { sim_.run(); });
    mirror_.refresh_delivered();
    sample_rss();
  }
  /// Runs the simulator `ticks` ahead with traffic left in flight, then
  /// re-derives the legal actors.
  void advance(SimTime ticks) {
    tr_.call(Layer::kSimRun, [&] { sim_.run_until(sim_.now() + ticks); });
    mirror_.refresh_delivered();
    sample_rss();
  }

  /// One budgeted sweep slice; true when it completed a round.
  bool sweep_slice() {
    bool done = false;
    tr_.call(Layer::kSweep, [&] { done = eng_.sweep_slice(budget()); });
    return done;
  }

  /// One budgeted sweep round, with the network drained between slices.
  void sweep_round() {
    while (true) {
      const bool done = sweep_slice();
      run();
      if (done) {
        return;
      }
    }
  }

  /// Heals the network and sweeps to the removal fixpoint: stops after two
  /// rounds that removed nothing and owed no re-emission.
  void cleanup() {
    net_.set_duplicate_rate(0);
    net_.set_drop_rate(0);
    run();
    std::size_t idle = 0;
    for (int round = 0; round < 64 && idle < 2; ++round) {
      const bool had_pending = eng_.pending_destruction_count() > 0 ||
                               eng_.pending_handoff_count() > 0;
      const std::size_t before = eng_.removed().size();
      sweep_round();
      idle = (eng_.removed().size() != before || had_pending) ? 0 : idle + 1;
    }
  }

  /// Applies exactly one legal op drawn from `mix`, steering the live
  /// population towards `population`.
  void mixed_op(const Mix& mix, std::uint32_t population) {
    enum class Kind { kCreate, kIntro, kForward, kHandoff, kDrop };
    const std::uint64_t d = rng_.below(100);
    Kind kind = d < mix.create    ? Kind::kCreate
                : d < mix.intro   ? Kind::kIntro
                : d < mix.forward ? Kind::kForward
                : d < mix.handoff ? Kind::kHandoff
                                  : Kind::kDrop;
    const std::uint32_t live = mirror_.live_issued();
    if (kind == Kind::kCreate && live > population + population / 10) {
      kind = Kind::kDrop;
    } else if (kind == Kind::kDrop && live < population - population / 10) {
      kind = Kind::kCreate;
    }
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::vector<std::uint32_t>& actors = mirror_.actors();
      const std::uint32_t a = actors[rng_.below(actors.size())];
      if (eng_.migrating(pid(a))) {
        continue;  // frozen until its snapshot lands
      }
      mirror_.held(a, held_);
      switch (kind) {
        case Kind::kCreate:
          create(a);
          return;
        case Kind::kIntro: {
          if (held_.empty()) {
            break;
          }
          const std::uint32_t j = held_[rng_.below(held_.size())];
          if (j == a || mirror_.has_edge(j, a) ||
              (!fault_shapes_ && mirror_.was_severed(j, a))) {
            break;
          }
          intro(a, j);
          return;
        }
        case Kind::kForward: {
          if (held_.size() < 2) {
            break;
          }
          const std::uint32_t k = held_[rng_.below(held_.size())];
          const std::uint32_t j = held_[rng_.below(held_.size())];
          if (j == k || mirror_.has_edge(j, k) ||
              (!fault_shapes_ &&
               (mirror_.was_severed(j, k) || mirror_.introduced(a, k)))) {
            break;
          }
          forward(a, k, j);
          return;
        }
        case Kind::kHandoff: {
          if (mirror_.is_root(a)) {
            break;
          }
          const SiteId from = eng_.site_of(pid(a));
          handoff(a, SiteId{(from.value() + 1 + rng_.below(sites_ - 1)) %
                            sites_});
          return;
        }
        case Kind::kDrop:
          if (held_.empty()) {
            break;
          }
          drop(a, held_[rng_.below(held_.size())]);
          return;
      }
    }
    // Always legal: a root creates.
    create(mirror_.roots()[rng_.below(mirror_.roots().size())]);
  }

  /// Checks the removed set (after clean-up drained the network).
  Check finish() { return mirror_.check(eng_.removed()); }

  /// Per-layer values of the timed phase (`timed`: the tracer's totals
  /// since it began), read from the benchmark's call timing, the engine's
  /// accessors and its registry.
  void layer_metrics(RoundResult& r, std::uint64_t events,
                     const Tracer::Totals& timed) {
    const cgc::obs::Registry& reg = reg_;
    const auto counter = [&](const char* name) -> double {
      auto it = reg.counters().find(name);
      return it == reg.counters().end() ? 0.0
                                        : static_cast<double>(it->second.value());
    };
    const auto hist = [&](const char* name) -> const cgc::obs::TickHistogram* {
      auto it = reg.histograms().find(name);
      return it == reg.histograms().end() ? nullptr : &it->second;
    };
    const double walks = counter("ggd.walks");
    const double unreachable = counter("ggd.walks_unreachable");
    r.layer.emplace_back("ggd.walks", walks);
    r.layer.emplace_back("ggd.walks_unreachable", unreachable);
    r.layer.emplace_back("ggd.walks_unreachable_ratio",
                         walks > 0 ? unreachable / walks : 0.0);
    const auto* consulted = hist("ggd.walk_consulted");
    r.layer.emplace_back("ggd.walk_consulted_p50",
                         consulted ? consulted->percentile(50) : 0);
    r.layer.emplace_back("ggd.inquiries", counter("ggd.inquiries"));
    const auto* rows = hist("ggd.relay_rows");
    r.layer.emplace_back("ggd.relay_rows", rows ? rows->sum() : 0);
    const auto* scanned = hist("ggd.sweep_scanned");
    r.layer.emplace_back("ggd.sweep_scanned", scanned ? scanned->sum() : 0);
    add_recovery_metrics(r);
    const auto* bundle = hist("logkeeping.bundle_entries");
    r.layer.emplace_back("logkeeping.bundle_entries_p50",
                         bundle ? bundle->percentile(50) : 0);

    const std::uint64_t mutator_calls = timed.count(Layer::kMutator);
    r.layer.emplace_back(
        "ggd.mutator_us_per_op",
        mutator_calls == 0 ? 0.0
                           : static_cast<double>(timed.busy(Layer::kMutator)) /
                                 1e3 / static_cast<double>(mutator_calls));
    r.layer.emplace_back("ggd.sweep_us_total",
                         static_cast<double>(timed.busy(Layer::kSweep)) / 1e3);
    r.layer.emplace_back("ggd.sweep_slices",
                         static_cast<double>(timed.count(Layer::kSweep)));
    r.layer.emplace_back("sim.run_us_total",
                         static_cast<double>(timed.busy(Layer::kSimRun)) / 1e3);
    r.layer.emplace_back("sim.events", static_cast<double>(events));
    add_wire_metrics(r, net_.stats());

    const GgdEngine::EngineFootprint fp = eng_.storage_footprint();
    r.layer.emplace_back("vclock.log_entries",
                         static_cast<double>(eng_.total_log_entries()));
    r.layer.emplace_back("vclock.live_bytes",
                         static_cast<double>(fp.live.total()));
    r.layer.emplace_back("vclock.tombstone_bytes",
                         static_cast<double>(fp.tombstone.total()));
    r.layer.emplace_back("arena.pool_reserved_kb",
                         static_cast<double>(eng_.pool().bytes_reserved()) / 1024);
    r.layer.emplace_back("arena.pool_live_kb",
                         static_cast<double>(eng_.pool().bytes_live()) / 1024);
  }

  /// The recovery-path counters (hand-offs, re-emission, stub reclaim).
  /// A workload's known-fault rounds add theirs to its own round's.
  void add_recovery_metrics(RoundResult& r) const {
    const auto counter = [&](const char* name) -> double {
      auto it = reg_.counters().find(name);
      return it == reg_.counters().end()
                 ? 0.0
                 : static_cast<double>(it->second.value());
    };
    r.layer.emplace_back("ggd.destructions_reemitted",
                         counter("ggd.destructions_reemitted"));
    r.layer.emplace_back("ggd.stubs_reclaimed", counter("ggd.stubs_reclaimed"));
    const GgdEngine::MigrationStats& m = eng_.migration_stats();
    r.layer.emplace_back("migration.handoffs", m.started);
    r.layer.emplace_back("migration.redirects", m.forwarded);
    r.layer.emplace_back("migration.bounces", m.bounced);
    r.layer.emplace_back("migration.reemitted", m.reemitted);
  }

  /// Times compute_v() over every live process (traced rounds only).
  void probe_compute_v(RoundResult& r) {
    const Tracer::Totals before = tr_.totals();
    for (ProcessId p : eng_.process_ids()) {
      const cgc::GgdProcess& proc = eng_.process(p);
      if (!proc.removed()) {
        tr_.call(Layer::kComputeV,
                 [&] { static_cast<void>(proc.compute_v()); });
      }
    }
    const Tracer::Totals probe = tr_.totals().since(before);
    const std::uint64_t calls = probe.count(Layer::kComputeV);
    r.layer.emplace_back(
        "ggd.compute_v_us",
        calls == 0 ? 0.0
                   : static_cast<double>(probe.busy(Layer::kComputeV)) / 1e3 /
                         static_cast<double>(calls));
  }

  void attach_registry() { eng_.attach_obs(&reg_, nullptr); }
  void set_faults(double dup, double drop) {
    net_.set_duplicate_rate(dup);
    net_.set_drop_rate(drop);
  }

  [[nodiscard]] SiteId site_for(std::uint32_t id) const {
    return SiteId{id % sites_};
  }
  [[nodiscard]] std::uint64_t budget() const {
    return std::max<std::uint64_t>(128, mirror_.size() / 16);
  }
  /// Samples the resident set into the round's peak.
  void sample_rss() { peak_rss_kb_ = std::max(peak_rss_kb_, current_rss_kb()); }
  [[nodiscard]] double peak_rss_mb() const {
    return static_cast<double>(peak_rss_kb_) / 1024.0;
  }
  /// Simulated time of the most recent mutator op.
  [[nodiscard]] SimTime last_op_at() const { return last_op_at_; }
  Simulator& sim() { return sim_; }
  cgc::Network& net() { return net_; }
  GgdEngine& eng() { return eng_; }
  Mirror& mirror() { return mirror_; }
  Rng& rng() { return rng_; }

 private:
  void log(const MutatorOp& op) {
    if (log_ != nullptr) {
      log_->push_back(op);
    }
  }

  cgc::Pool sim_pool_;  // backs the event heap; outlives the simulator
  Simulator sim_;
  cgc::Network net_;
  cgc::obs::Registry reg_;  // outlives the engine, which caches pointers
  GgdEngine eng_;
  Mirror mirror_;
  Rng rng_;
  Tracer& tr_;
  std::vector<MutatorOp>* log_;
  std::uint64_t sites_;
  bool fault_shapes_;
  std::vector<std::uint32_t> held_;
  SimTime last_op_at_ = 0;
  std::uint64_t peak_rss_kb_ = 0;
};

/// Shrinks a shape for the self-tests.
SimShape small_shape(SimShape s) {
  s.sites = 8;
  s.roots = 8;
  s.population = 150;
  s.setup_ops = 192;
  s.churn_ops = 1200;
  s.batch = 16;
  s.sweep_every = 8;
  return s;
}

SimShape shape_of(Workload w, bool small) {
  SimShape s;
  if (w == Workload::kLossyHandoff) {
    // Duplication only: with packet loss or hand-offs in the seeded mix
    // the collector fails on some seeds (README "Known faults").
    s.duplicate_rate = 0.05;
  }
  return small ? small_shape(s) : s;
}

/// Seeds of the known-fault rounds: the first seed on which each round's
/// check failed (`perfbench --find-fault-seeds`). A change to the op
/// generator or to the collector's timing can move them.
constexpr std::uint64_t kFullMixSeed = 2;
constexpr std::uint64_t kHandoffLossSeed = 37;

/// A known-fault round: a fixed seed and shape on which the collector
/// gives a wrong removed set every time (README "Known faults"). Each
/// round of its workload runs it once after the seeded round; its ops are
/// attempted, and they all count as failed while its check fails.
struct FaultRound {
  const char* name;
  SimShape shape;
  std::uint64_t seed;
};

std::vector<FaultRound> fault_rounds(Workload w) {
  std::vector<FaultRound> out;
  if (w == Workload::kSteadyChurn) {
    // Re-grants and forwards of a process the forwarder introduced itself
    // to, issued by an unpaced mutator.
    SimShape s;
    s.fault_shapes = true;
    s.batch_ticks = 8;
    out.push_back({"full_mix_unpaced", s, kFullMixSeed});
  } else if (w == Workload::kLossyHandoff) {
    // About 8% cross-site hand-offs, 5% loss and 2% duplication.
    SimShape loss;
    loss.mix = Mix{.create = 28, .intro = 46, .forward = 64, .handoff = 72};
    loss.drop_rate = 0.05;
    loss.duplicate_rate = 0.02;
    out.push_back({"handoff_loss", loss, kHandoffLossSeed});
  }
  return out;
}

/// Fills the end-to-end fields shared by the simulator workloads.
void finish_sim_round(SimRound& sr, RoundResult& r, const Tracer& tr,
                      const Tracer::Totals& timed_start,
                      std::uint64_t events_before, bool probe) {
  const SimTime last_op = sr.last_op_at();
  const Tracer::Totals timed = tr.totals().since(timed_start);
  r.program_s = static_cast<double>(timed.program_ns()) / 1e9;
  r.reclaimed = sr.eng().removed().size();
  r.latencies = sr.mirror().latencies();
  r.drain_ticks = sr.mirror().last_removal() > last_op
                      ? sr.mirror().last_removal() - last_op
                      : 0;
  r.slice_ns = tr.slice_ns();
  r.ctrl_bytes = sr.net().stats().control_bytes_sent();
  r.wire_bytes = sr.net().stats().packets().bytes_sent;
  r.live = sr.eng().process_count() - sr.eng().removed().size();
  r.log_entries = sr.eng().total_log_entries();
  r.peak_rss_mb = sr.peak_rss_mb();
  if (probe) {
    sr.layer_metrics(r, sr.sim().executed() - events_before, timed);
  }
}

/// One churn round of `shape`. With `stop_on_trip` the timed phase stops
/// at the first removal of a reachable process (no op may then touch it).
RoundResult run_churn_round(const SimShape& shape, std::uint64_t seed,
                            Tracer& tr, std::vector<MutatorOp>* ops,
                            bool stop_on_trip = false) {
  RoundResult r;
  Tracer::Phase round_span(tr, Layer::kRound);
  SimRound sr(shape.sites, seed, tr, ops, shape.drop_rate > 0,
              shape.fault_shapes);

  // Set-up: roots, then a fixed number of ops growing the population by
  // creation, self-introduction and forwarding (nothing is severed, so
  // nothing is garbage yet).
  const std::int64_t setup_start = now_ns();
  {
    Tracer::Phase span(tr, Layer::kSetup);
    for (std::uint64_t i = 0; i < shape.roots; ++i) {
      sr.add_root();
    }
    const Mix build{.create = 70, .intro = 85, .forward = 100, .handoff = 100};
    for (std::uint64_t op = 0; op < shape.setup_ops; ++op) {
      sr.mixed_op(build, UINT32_MAX / 2);
      if ((op + 1) % 32 == 0) {
        sr.run();
      }
    }
    sr.run();
  }
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  // Timed phase: sustained churn with budgeted sweep rounds, then the
  // healed clean-up to the removal fixpoint.
  sr.net().stats().reset();
  if (tr.tracing()) {
    sr.attach_registry();
  }
  const std::uint64_t events_before = sr.sim().executed();
  const Tracer::Totals timed_start = tr.totals();
  {
    Tracer::Phase span(tr, Layer::kChurn);
    sr.set_faults(shape.duplicate_rate, shape.drop_rate);
    // Batches of ops. A paced mutator drains the simulator after each
    // batch and runs one budgeted sweep round every `sweep_every` batches;
    // an unpaced one moves `batch_ticks` ahead and runs one sweep slice.
    for (std::uint64_t op = 0; op < shape.churn_ops; ++op) {
      sr.mixed_op(shape.mix, shape.population);
      ++r.timed_ops;
      if ((op + 1) % shape.batch != 0) {
        continue;
      }
      if (shape.batch_ticks == 0) {
        sr.run();
        if ((op + 1) / shape.batch % shape.sweep_every == 0) {
          sr.sweep_round();
        }
      } else {
        sr.advance(shape.batch_ticks);
        sr.sweep_slice();
      }
      if (stop_on_trip && sr.mirror().tripwire() > 0) {
        break;
      }
    }
  }
  {
    Tracer::Phase span(tr, Layer::kCleanup);
    sr.cleanup();
  }
  {
    Tracer::Phase span(tr, Layer::kCheck);
    r.check = sr.finish();
    if (tr.tracing()) {
      sr.probe_compute_v(r);
    }
  }
  r.attempted = shape.roots + shape.setup_ops + r.timed_ops;
  finish_sim_round(sr, r, tr, timed_start, events_before, tr.tracing());
  if (!r.check.ok()) {
    r.failure = r.check.describe();
  }
  return r;
}

RoundResult run_teardown_round(std::uint64_t seed, Tracer& tr,
                               std::vector<MutatorOp>* ops, bool small) {
  const std::uint64_t sites = small ? 8 : 32;
  const std::uint64_t roots = small ? 4 : 16;
  const std::uint32_t population = small ? 200 : 400;
  const std::uint64_t min_k = small ? 4 : 8;
  const std::uint64_t max_k = small ? 12 : 48;
  RoundResult r;
  Tracer::Phase round_span(tr, Layer::kRound);
  SimRound sr(sites, seed, tr, ops);

  // Set-up: hang §4 cyclic structures (rings with two-element sub-cycles
  // and doubly-linked lists) off shared roots. A structure's op list is
  // the canonical trace minus its final sever; its trace-local ids map to
  // fresh processes as they are created. Ops run as soon as their actor
  // is reachable over delivered references, all structures in lockstep.
  struct Structure {
    std::vector<MutatorOp> ops;
    std::vector<std::uint32_t> ids;  // trace-local id -> process
    std::size_t cursor = 0;
    std::uint32_t root = 0;
    std::uint32_t head = 0;
  };
  const std::int64_t setup_start = now_ns();
  std::vector<Structure> structures;
  std::uint64_t setup_ops = 0;
  {
    Tracer::Phase span(tr, Layer::kSetup);
    std::vector<std::uint32_t> root_ids;
    for (std::uint64_t i = 0; i < roots; ++i) {
      root_ids.push_back(sr.add_root());
      ++setup_ops;
    }
    std::uint64_t planned = 0;
    while (planned < population) {
      const std::size_t k = sr.rng().between(min_k, max_k);
      const cgc::TraceBuilder t = sr.rng().chance(0.5)
                                      ? cgc::traces::ring_with_subcycles(k)
                                      : cgc::traces::doubly_linked_list(k);
      Structure s;
      s.ops.assign(t.ops().begin() + 1, t.ops().end() - 1);  // no root, no sever
      s.ids.assign(t.max_id() + 1, 0);
      s.root = root_ids[sr.rng().below(root_ids.size())];
      s.ids[t.ops().front().a.value()] = s.root;
      structures.push_back(std::move(s));
      planned += k;
    }
    const auto mapped = [](const Structure& s, ProcessId p) {
      return s.ids[p.value()];
    };
    std::vector<std::uint8_t> actor_ok;
    for (bool pending = true; pending;) {
      pending = false;
      actor_ok.assign(sr.mirror().size() + 1, 0);
      for (std::uint32_t a : sr.mirror().actors()) {
        actor_ok[a] = 1;
      }
      for (Structure& s : structures) {
        while (s.cursor < s.ops.size()) {
          const MutatorOp& op = s.ops[s.cursor];
          const std::uint32_t actor = mapped(s, op.actor());
          if (actor == 0 || actor >= actor_ok.size() || actor_ok[actor] == 0) {
            break;
          }
          if (op.kind == MutatorOp::Kind::kCreate) {
            s.ids[op.a.value()] = sr.create(actor);
            if (s.head == 0) {
              s.head = s.ids[op.a.value()];
            }
          } else {
            CGC_CHECK(op.kind == MutatorOp::Kind::kLinkOwn);
            sr.intro(actor, mapped(s, op.b));
          }
          ++setup_ops;
          ++s.cursor;
        }
        pending = pending || s.cursor < s.ops.size();
      }
      sr.run();
    }
  }
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  // Timed phase: sever every structure from its root, eight at a time with
  // a simulator drain between batches, then run to the removal fixpoint.
  sr.net().stats().reset();
  if (tr.tracing()) {
    sr.attach_registry();
  }
  const std::uint64_t events_before = sr.sim().executed();
  const Tracer::Totals timed_start = tr.totals();
  {
    Tracer::Phase span(tr, Layer::kChurn);
    std::vector<std::size_t> order(structures.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[sr.rng().below(i)]);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Structure& s = structures[order[i]];
      sr.drop(s.root, s.head);
      if ((i + 1) % 8 == 0) {
        sr.run();
      }
    }
  }
  {
    Tracer::Phase span(tr, Layer::kCleanup);
    sr.cleanup();
  }
  {
    Tracer::Phase span(tr, Layer::kCheck);
    r.check = sr.finish();
    if (tr.tracing()) {
      sr.probe_compute_v(r);
    }
  }
  r.attempted = setup_ops + structures.size();
  r.timed_ops = structures.size();
  finish_sim_round(sr, r, tr, timed_start, events_before, tr.tracing());
  if (!r.check.ok()) {
    r.failure = r.check.describe();
  }
  return r;
}

/// A trace-level legal trace for the threaded runtime: the mirror delivers
/// every reference the moment it is issued (ReachabilityOracle::apply
/// semantics). The mix is the full one, re-grants included.
std::vector<MutatorOp> threaded_trace(std::uint64_t seed, bool small) {
  const std::uint64_t roots = small ? 3 : 6;
  const std::size_t build_ops = small ? 60 : 160;
  const std::size_t churn_ops = small ? 40 : 100;
  Rng rng(seed);
  Mirror m;
  std::vector<MutatorOp> ops;
  const auto grant = [&](std::uint32_t holder, std::uint32_t target) {
    m.issue(holder, target);
    m.deliver(holder, target);
    m.refresh_delivered();
  };
  for (std::uint64_t i = 0; i < roots; ++i) {
    const std::uint32_t id = m.add(/*root=*/true);
    ops.push_back({MutatorOp::Kind::kAddRoot, pid(id), {}, {}});
  }
  std::vector<std::uint32_t> held;
  const auto total = build_ops + churn_ops;
  while (ops.size() < roots + total) {
    const bool churn = ops.size() >= roots + build_ops;
    const std::uint64_t d = rng.below(100);
    const std::uint32_t a = m.actors()[rng.below(m.actors().size())];
    m.held(a, held);
    if (d < 40 || held.empty()) {
      const std::uint32_t id = m.add(/*root=*/false);
      grant(a, id);
      ops.push_back({MutatorOp::Kind::kCreate, pid(id), pid(a), {}});
    } else if (d < 60) {
      const std::uint32_t j = held[rng.below(held.size())];
      if (j != a && !m.has_edge(j, a)) {
        m.introduce(a, j);
        m.deliver(j, a);
        m.refresh_delivered();
        ops.push_back({MutatorOp::Kind::kLinkOwn, pid(a), pid(j), {}});
      }
    } else if (d < 80 || !churn) {
      const std::uint32_t k = held[rng.below(held.size())];
      const std::uint32_t j = held[rng.below(held.size())];
      if (j != k && !m.has_edge(j, k)) {
        grant(j, k);
        ops.push_back({MutatorOp::Kind::kLinkThird, pid(a), pid(j), pid(k)});
      }
    } else {
      const std::uint32_t k = held[rng.below(held.size())];
      m.drop(a, k, 0);
      ops.push_back({MutatorOp::Kind::kDrop, pid(a), pid(k), {}});
    }
  }
  return ops;
}

/// Garbage of the ops the threaded schedule marks as applied, checked
/// against the run's removed set. The ops go to the oracle as edges, not
/// through its legality check: a site applies an op whose actor is
/// registered there even when a skipped grant left it unreachable.
Check check_threaded(const std::vector<MutatorOp>& ops,
                     const cgc::runtime_mt::ThreadedRun& run) {
  cgc::ReachabilityOracle oracle;
  // Every process first (a site registers a process whatever its
  // creator's state), then the edges in schedule order.
  for (const MutatorOp& op : ops) {
    if (op.kind == MutatorOp::Kind::kAddRoot) {
      oracle.add_root(op.a);
    } else if (op.kind == MutatorOp::Kind::kCreate) {
      oracle.add_node(op.a);
    }
  }
  for (const cgc::runtime_mt::InputRecord& rec : run.schedule) {
    if (rec.kind != cgc::runtime_mt::Envelope::Kind::kOp || !rec.applied) {
      continue;
    }
    const MutatorOp& op = ops[rec.op_index];
    switch (op.kind) {
      case MutatorOp::Kind::kCreate:
        oracle.add_edge(op.b, op.a);
        break;
      case MutatorOp::Kind::kLinkOwn:
        oracle.add_edge(op.b, op.a);
        break;
      case MutatorOp::Kind::kLinkThird:
        oracle.add_edge(op.recipient(), op.subject());
        break;
      case MutatorOp::Kind::kDrop:
        oracle.remove_edge(op.a, op.b);
        break;
      default:
        break;
    }
  }
  Check c;
  c.removed = run.removed.size();
  c.garbage = oracle.true_garbage().size();
  c.unsafe = oracle.safety_violations(run.removed).size();
  c.residual = oracle.residual_garbage(run.removed).size();
  return c;
}

/// The process's resident-set high-water mark in MB.
double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in kB
}

RoundResult run_threaded_round(std::uint64_t seed, Tracer& tr,
                               std::vector<MutatorOp>* log, bool small) {
  RoundResult r;
  Tracer::Phase round_span(tr, Layer::kRound);
  const std::int64_t setup_start = now_ns();
  std::vector<MutatorOp> ops;
  {
    Tracer::Phase span(tr, Layer::kSetup);
    ops = threaded_trace(seed, small);
  }
  r.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  if (log != nullptr) {
    log->insert(log->end(), ops.begin(), ops.end());
  }

  cgc::ScenarioSpec spec;  // fault-free
  spec.seed = seed;
  spec.num_ops = ops.size();
  cgc::runtime_mt::ThreadedConfig cfg;
  const unsigned hw = std::thread::hardware_concurrency();
  cfg.num_threads = std::max<std::uint64_t>(1, std::min<std::uint64_t>(
                                                   3, hw > 1 ? hw - 1 : 1));
  spec.num_sites = cfg.num_threads;
  cfg.watchdog_ms = 60'000;
  cgc::runtime_mt::ThreadedRun run;
  const Tracer::Totals timed_start = tr.totals();
  {
    Tracer::Phase span(tr, Layer::kChurn);
    tr.call(Layer::kThreaded,
            [&] { run = cgc::runtime_mt::run_threaded(spec, ops, cfg); });
  }
  r.program_s =
      static_cast<double>(tr.totals().since(timed_start).program_ns()) / 1e9;
  {
    Tracer::Phase span(tr, Layer::kCheck);
    r.check = check_threaded(ops, run);
  }
  r.attempted = ops.size();
  r.failed = run.skipped_ops;
  r.timed_ops = ops.size() - run.skipped_ops;
  r.reclaimed = run.removed.size();
  r.ctrl_bytes = run.stats.control_bytes_sent();
  r.wire_bytes = run.stats.packets().bytes_sent;
  // The workers' state is gone by now, so the peak is the process's
  // high-water mark (every round of this process is of the same size).
  r.peak_rss_mb = max_rss_mb();
  r.layer.emplace_back("runtime_mt.envelopes", run.envelopes);
  r.layer.emplace_back("runtime_mt.envelopes_per_s",
                       r.program_s > 0 ? static_cast<double>(run.envelopes) /
                                             r.program_s
                                       : 0.0);
  r.layer.emplace_back("runtime_mt.skipped_ops", run.skipped_ops);
  r.layer.emplace_back("runtime_mt.packets", run.stats.packets().sent);
  add_wire_metrics(r, run.stats);
  if (!run.ok()) {
    r.failure = "threaded run failed: " + run.failures.front();
  } else if (!r.check.ok()) {
    r.failure = r.check.describe();
  }
  return r;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (Workload w : {Workload::kSteadyChurn, Workload::kCyclicTeardown,
                     Workload::kLossyHandoff, Workload::kThreadedChurn}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSteadyChurn:
      return "steady_churn";
    case Workload::kCyclicTeardown:
      return "cyclic_teardown";
    case Workload::kLossyHandoff:
      return "lossy_handoff";
    case Workload::kThreadedChurn:
      return "threaded_churn";
  }
  return "?";
}

RoundResult run_round(Workload w, std::uint64_t seed, Tracer& tracer,
                      std::vector<MutatorOp>* ops, bool small,
                      bool with_faults) {
  RoundResult r;
  switch (w) {
    case Workload::kSteadyChurn:
    case Workload::kLossyHandoff:
      r = run_churn_round(shape_of(w, small), seed, tracer, ops);
      break;
    case Workload::kCyclicTeardown:
      r = run_teardown_round(seed, tracer, ops, small);
      break;
    case Workload::kThreadedChurn:
      r = run_threaded_round(seed, tracer, ops, small);
      break;
  }
  add_self_times(r, tracer);
  if (!with_faults) {
    return r;
  }
  // The workload's known-fault rounds, on their own tracers: they add to
  // the op counts and to the recovery-path layer counters only.
  for (const FaultRound& f : fault_rounds(w)) {
    Tracer ft(tracer.tracing());
    const RoundResult fr =
        run_churn_round(f.shape, f.seed, ft, nullptr, /*stop_on_trip=*/true);
    r.attempted += fr.attempted;
    if (!fr.check.ok()) {
      r.failed += fr.attempted;
    }
    r.faults.push_back({f.name, fr.check, fr.attempted});
    for (const auto& [name, value] : fr.layer) {
      if (name.starts_with("migration.") || name == "ggd.stubs_reclaimed" ||
          name == "ggd.destructions_reemitted") {
        r.layer.emplace_back(name, value);
      }
    }
  }
  return r;
}

std::string find_fault_seeds(std::uint64_t limit) {
  std::string out;
  for (Workload w : {Workload::kSteadyChurn, Workload::kLossyHandoff}) {
    for (const FaultRound& f : fault_rounds(w)) {
      out += std::string(workload_name(w)) + "/" + f.name + ":";
      std::size_t found = 0;
      for (std::uint64_t seed = 1; seed <= limit && found < 3; ++seed) {
        Tracer tr(false);
        const RoundResult r =
            run_churn_round(f.shape, seed, tr, nullptr, /*stop_on_trip=*/true);
        if (!r.check.ok()) {
          out += " " + std::to_string(seed) + " (ops=" +
                 std::to_string(r.attempted) + " " + r.check.describe() + ")";
          ++found;
        }
      }
      out += "\n";
    }
  }
  return out;
}

std::string self_test() {
  // 1. Legality: every generated op passes the trace-level oracle.
  for (Workload w : {Workload::kSteadyChurn, Workload::kCyclicTeardown,
                     Workload::kLossyHandoff, Workload::kThreadedChurn}) {
    std::vector<MutatorOp> ops;
    if (w == Workload::kThreadedChurn) {
      // Only the trace is checked: running it needs worker threads.
      ops = threaded_trace(7, /*small=*/true);
    } else {
      Tracer tr(false);
      const RoundResult r = run_round(w, 7, tr, &ops, /*small=*/true);
      if (!r.ok()) {
        return std::string("small ") + workload_name(w) +
               " round failed: " + r.failure;
      }
    }
    cgc::ReachabilityOracle oracle;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!oracle.apply(ops[i])) {
        return std::string("op ") + std::to_string(i) + " of " +
               workload_name(w) + " rejected by ReachabilityOracle::apply";
      }
    }
  }

  // 2. Legality of the known-fault rounds' shapes, at a small size (their
  // checks are expected to fail at full size, so only legality counts).
  for (Workload w : {Workload::kSteadyChurn, Workload::kLossyHandoff}) {
    for (const FaultRound& f : fault_rounds(w)) {
      std::vector<MutatorOp> ops;
      Tracer tr(false);
      static_cast<void>(run_churn_round(small_shape(f.shape), 7, tr, &ops,
                                        /*stop_on_trip=*/true));
      cgc::ReachabilityOracle oracle;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (!oracle.apply(ops[i])) {
          return std::string("op ") + std::to_string(i) + " of fault round " +
                 f.name + " rejected by ReachabilityOracle::apply";
        }
      }
    }
  }

  // 3. The check rejects a wrong removed set: drop one reclaimed garbage
  // process from it and add one live process.
  Tracer tr(false);
  SimRound sr(8, 11, tr, nullptr);
  for (int i = 0; i < 4; ++i) {
    sr.add_root();
  }
  const SimShape shape = shape_of(Workload::kSteadyChurn, /*small=*/true);
  for (std::uint64_t op = 0; op < shape.churn_ops; ++op) {
    sr.mixed_op(shape.mix, shape.population);
    if ((op + 1) % shape.batch == 0) {
      sr.run();
    }
  }
  sr.cleanup();
  const Check right = sr.finish();
  std::vector<ProcessId> removed = sr.eng().removed();
  if (!right.ok() || removed.empty()) {
    return "check self-test round did not produce a clean removed set: " +
           right.describe();
  }
  removed.pop_back();
  for (ProcessId p : sr.eng().process_ids()) {
    if (!sr.eng().process(p).removed() && !sr.eng().process(p).is_root()) {
      removed.push_back(p);
      break;
    }
  }
  const Check wrong = sr.mirror().check(removed);
  if (wrong.unsafe != 1 || wrong.residual != 1 || wrong.ok()) {
    return "check accepted a wrong removed set: " + wrong.describe();
  }
  return {};
}

}  // namespace perfbench
