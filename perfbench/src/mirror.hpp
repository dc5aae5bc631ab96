// The benchmark's own ground truth for one round.
//
// The mirror records every reference the benchmark's mutator issued, as an
// edge holder -> target that is either in flight (sent, not yet arrived)
// or held (the engine reported its delivery). Two reachability views are
// kept over it:
//
//   * issued reachability (held + in-flight edges): what the collector must
//     respect on a network that loses nothing — a reference in flight will
//     arrive and its target is live. Unreachability onsets are taken here,
//     at the sever that disconnects a process. Actors are only ever
//     reachable processes and only grant references they hold, so garbage
//     in this view is stable: a removal of an issued-reachable process is a
//     safety violation at that instant (the tripwire);
//   * delivered reachability (held edges only): who may act. An actor must
//     be reachable over delivered references, and only delivered
//     references are forwarded or dropped.
//
// On a lossy network (`lossy`) an in-flight reference may never arrive, so
// the tripwire uses delivered reachability instead: a removal of a process
// reachable over held edges at that instant, or found so at the next
// refresh (a reference to it arrived after the removal), is a violation.
// After the network drained, references still in flight were lost.
//
// The final check runs after the network has drained: on a loss-free
// network nothing may still be in flight, and the engine's removed set
// must equal the garbage over held edges — nothing reachable removed
// (safety), no garbage left (completeness).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using cgc::ProcessId;
using cgc::SimTime;

/// Outcome of the removed-set check.
struct Check {
  std::size_t removed = 0;
  std::size_t garbage = 0;
  std::size_t unsafe = 0;      // removed but reachable at the end
  std::size_t residual = 0;    // garbage never removed
  std::size_t tripwire = 0;    // removed while reachable at the instant
  std::size_t duplicates = 0;  // removed twice
  std::size_t stranded = 0;    // still in flight after a loss-free drain

  [[nodiscard]] bool ok() const {
    return unsafe == 0 && residual == 0 && tripwire == 0 && duplicates == 0 &&
           stranded == 0;
  }
  [[nodiscard]] std::string describe() const {
    return "removed=" + std::to_string(removed) +
           " garbage=" + std::to_string(garbage) +
           " unsafe=" + std::to_string(unsafe) +
           " residual=" + std::to_string(residual) +
           " tripwire=" + std::to_string(tripwire) +
           " duplicates=" + std::to_string(duplicates) +
           " stranded=" + std::to_string(stranded);
  }
};

class Mirror {
 public:
  static constexpr SimTime kNone = std::numeric_limits<SimTime>::max();

  explicit Mirror(bool lossy = false) : lossy_(lossy) {
    add_slot();  // index 0 is unused: process ids start at 1
  }

  /// Registers the next process; its id is the returned index.
  std::uint32_t add(bool root) {
    const std::uint32_t id = add_slot();
    if (root) {
      root_[id] = 1;
      roots_.push_back(id);
      reach_issued_[id] = 1;
      reach_delivered_[id] = 1;
      actors_.push_back(id);
      ++live_issued_;
    } else {
      // Reachable through the creator's in-flight reference; not yet an
      // actor: the creator has not received the reference.
      reach_issued_[id] = 1;
      ++live_issued_;
    }
    return id;
  }

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(out_.size() - 1);
  }
  [[nodiscard]] bool is_root(std::uint32_t p) const { return root_[p] != 0; }
  [[nodiscard]] const std::vector<std::uint32_t>& roots() const {
    return roots_;
  }
  /// Processes reachable over delivered references (the legal actors), as
  /// of the last refresh or sever.
  [[nodiscard]] const std::vector<std::uint32_t>& actors() const {
    return actors_;
  }
  [[nodiscard]] std::uint32_t live_issued() const { return live_issued_; }

  /// An edge holder -> target exists, in flight or held.
  [[nodiscard]] bool has_edge(std::uint32_t holder, std::uint32_t target) const {
    for (const Edge& e : out_[holder]) {
      if (e.to == target) {
        return true;
      }
    }
    return false;
  }

  /// `holder` dropped `target` earlier in the round (a grant of the pair
  /// now is a re-grant: README "Known faults").
  [[nodiscard]] bool was_severed(std::uint32_t holder,
                                 std::uint32_t target) const {
    return severed_.contains({holder, target});
  }
  /// `i` sent its own reference to `j` earlier in the round (README "Known
  /// faults").
  [[nodiscard]] bool introduced(std::uint32_t i, std::uint32_t j) const {
    return introduced_.contains({i, j});
  }

  /// Targets `holder` has received and not dropped.
  void held(std::uint32_t holder, std::vector<std::uint32_t>& into) const {
    into.clear();
    for (const Edge& e : out_[holder]) {
      if (e.held) {
        into.push_back(e.to);
      }
    }
  }

  /// The mutator sent `target`'s reference to `holder`.
  void issue(std::uint32_t holder, std::uint32_t target) {
    CGC_CHECK(!has_edge(holder, target));
    out_[holder].push_back(Edge{target, false});
    ++in_flight_;
  }

  /// `i` sent its own reference to `j` (edge j -> i, in flight).
  void introduce(std::uint32_t i, std::uint32_t j) {
    issue(j, i);
    introduced_.insert({i, j});
  }

  /// Delivery hook: the reference arrived.
  void deliver(std::uint32_t holder, std::uint32_t target) {
    for (Edge& e : out_[holder]) {
      if (e.to == target && !e.held) {
        e.held = true;
        --in_flight_;
        delivered_dirty_ = true;
        return;
      }
    }
    CGC_CHECK_MSG(false, "delivery of a reference the mirror never issued");
  }

  /// The holder dropped a held reference; onsets are stamped at `now`.
  void drop(std::uint32_t holder, std::uint32_t target, SimTime now) {
    auto& v = out_[holder];
    const auto it = std::find_if(v.begin(), v.end(), [&](const Edge& e) {
      return e.to == target && e.held;
    });
    CGC_CHECK_MSG(it != v.end(), "drop of a reference not held");
    *it = v.back();
    v.pop_back();
    severed_.insert({holder, target});
    if (reach_issued_[target] != 0) {
      refresh_issued(now);
    }
    if (reach_delivered_[target] != 0) {
      delivered_dirty_ = true;
      refresh_delivered();
    }
  }

  /// Re-derives the actor set after deliveries (batch boundaries).
  void refresh_delivered() {
    if (!delivered_dirty_) {
      return;
    }
    delivered_dirty_ = false;
    bfs(/*held_only=*/true);
    actors_.clear();
    for (std::uint32_t p = 1; p < out_.size(); ++p) {
      reach_delivered_[p] = mark_[p];
      if (mark_[p] == 0) {
        continue;
      }
      if (removed_at_[p] != kNone) {
        trip(p);  // a reference to it arrived after its removal
      } else {
        actors_.push_back(p);
      }
    }
  }

  /// Removal hook: records the reclaim latency sample, or a tripwire hit
  /// when the process was reachable at that instant.
  void on_removed(std::uint32_t p, SimTime now) {
    if (removed_at_[p] != kNone) {
      ++duplicates_;
      return;
    }
    removed_at_[p] = now;
    last_removal_ = std::max(last_removal_, now);
    if ((lossy_ ? reach_delivered_[p] : reach_issued_[p]) != 0) {
      trip(p);
      return;
    }
    if (!lossy_) {
      latency_.push_back(now - onset_issued_[p]);
    }
  }
  [[nodiscard]] const std::vector<SimTime>& latencies() const {
    return latency_;
  }
  [[nodiscard]] SimTime last_removal() const { return last_removal_; }
  /// Removals of reachable processes seen so far.
  [[nodiscard]] std::size_t tripwire() const { return tripwire_; }

  /// The final check of `removed` (the engine's removal list) against the
  /// garbage over held edges. Call once the network has drained.
  [[nodiscard]] Check check(const std::vector<ProcessId>& removed) const {
    Check c;
    c.tripwire = tripwire_;
    c.duplicates = duplicates_;
    c.stranded = lossy_ ? 0 : in_flight_;
    std::vector<std::uint8_t> in_removed(out_.size(), 0);
    for (ProcessId p : removed) {
      CGC_CHECK(p.value() < out_.size());
      if (in_removed[p.value()] != 0) {
        ++c.duplicates;
      }
      in_removed[p.value()] = 1;
    }
    bfs(/*held_only=*/true);
    for (std::uint32_t p = 1; p < out_.size(); ++p) {
      const bool garbage = mark_[p] == 0 && root_[p] == 0;
      c.garbage += garbage ? 1 : 0;
      c.removed += in_removed[p];
      if (in_removed[p] != 0 && !garbage) {
        ++c.unsafe;
      }
      if (in_removed[p] == 0 && garbage) {
        ++c.residual;
      }
    }
    return c;
  }

 private:
  struct Edge {
    std::uint32_t to;
    bool held;
  };

  void trip(std::uint32_t p) {
    if (tripped_[p] == 0) {
      tripped_[p] = 1;
      ++tripwire_;
    }
  }

  std::uint32_t add_slot() {
    out_.emplace_back();
    tripped_.push_back(0);
    root_.push_back(0);
    reach_issued_.push_back(0);
    reach_delivered_.push_back(0);
    onset_issued_.push_back(kNone);
    removed_at_.push_back(kNone);
    mark_.push_back(0);
    return static_cast<std::uint32_t>(out_.size() - 1);
  }

  /// Marks everything reachable from the roots in `mark_`.
  void bfs(bool held_only) const {
    std::fill(mark_.begin(), mark_.end(), 0);
    stack_.clear();
    for (std::uint32_t r : roots_) {
      mark_[r] = 1;
      stack_.push_back(r);
    }
    while (!stack_.empty()) {
      const std::uint32_t v = stack_.back();
      stack_.pop_back();
      for (const Edge& e : out_[v]) {
        if ((e.held || !held_only) && mark_[e.to] == 0) {
          mark_[e.to] = 1;
          stack_.push_back(e.to);
        }
      }
    }
  }

  /// Issued reachability only shrinks (garbage is stable): every process
  /// that just lost it takes its onset now.
  void refresh_issued(SimTime now) {
    bfs(/*held_only=*/false);
    for (std::uint32_t p = 1; p < out_.size(); ++p) {
      if (reach_issued_[p] != 0 && mark_[p] == 0) {
        reach_issued_[p] = 0;
        onset_issued_[p] = now;
        --live_issued_;
      }
    }
  }

  std::vector<std::vector<Edge>> out_;
  std::vector<std::uint8_t> root_;
  std::vector<std::uint32_t> roots_;
  std::vector<std::uint8_t> reach_issued_;
  std::vector<std::uint8_t> reach_delivered_;
  std::vector<SimTime> onset_issued_;
  std::vector<SimTime> removed_at_;
  std::vector<std::uint8_t> tripped_;
  std::vector<std::uint32_t> actors_;
  mutable std::vector<std::uint8_t> mark_;
  mutable std::vector<std::uint32_t> stack_;
  std::vector<SimTime> latency_;
  std::uint32_t live_issued_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t tripwire_ = 0;
  std::size_t duplicates_ = 0;
  SimTime last_removal_ = 0;
  bool delivered_dirty_ = false;
  bool lossy_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> severed_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> introduced_;
};

}  // namespace perfbench
