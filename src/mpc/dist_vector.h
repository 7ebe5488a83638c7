// Block-distributed typed arrays living on the simulated cluster.
//
// A DistVector<T> of logical size n is split over the m machines in the
// canonical block layout: machine i owns global indices
// [ i*n/m, (i+1)*n/m )  (floor division). Collectives may transiently leave
// shards unbalanced (e.g. mid-sort); `is_balanced()` tells whether the
// canonical layout currently holds.
//
// Shard contents are registered with the cluster's resident-space audit
// once, at construction, so the per-round space checks see them — and with
// the cluster's checkpoint/restore protocol (ResidentHooks), so crash
// recovery can roll a shard back to the round-entry snapshot: checkpoint
// serializes a shard through the util/codec.h word codec, restore
// reinstates it bit-exactly. The hooks point at the heap-held shard array,
// which a move hands over whole, so a moved vector keeps its registration
// and every live structure is counted exactly once.
//
// The audit is incremental: handing out shard i mutably (local(i)) marks
// (this vector, machine i) for the next audit to re-read, and nothing else
// does. So a mutable shard reference is valid only within the round or
// host step that took it — the code between two cluster rounds, or one
// machine's closure inside a round. Keeping one across a round and
// writing through it later hides the change from the audit (builds with
// MONGE_DCHECK on catch it: their audit re-checks a full walk). Read-only
// access goes through the const overload and marks nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "mpc/cluster.h"
#include "util/check.h"

namespace monge::mpc {

/// Host-side array with one entry per machine; the simulation convention is
/// that machine i only reads/writes index i inside a round.
template <typename T>
using PerMachine = std::vector<T>;

/// Canonical block layout of `total` items over `machines` machines.
struct BlockLayout {
  std::int64_t total = 0;
  std::int64_t machines = 1;

  std::int64_t lo(std::int64_t machine) const {
    return machine * total / machines;
  }
  std::int64_t hi(std::int64_t machine) const {
    return (machine + 1) * total / machines;
  }
  std::int64_t size(std::int64_t machine) const {
    return hi(machine) - lo(machine);
  }
  /// Owner of global index idx: the unique i with lo(i) <= idx < hi(i).
  std::int64_t owner(std::int64_t idx) const {
    MONGE_DCHECK(idx >= 0 && idx < total);
    std::int64_t i = ((idx + 1) * machines - 1) / total;
    // Floor-division rounding can land one off; correct locally.
    while (i > 0 && lo(i) > idx) --i;
    while (i + 1 < machines && hi(i) <= idx) ++i;
    return i;
  }
};

template <typename T>
class DistVector {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  DistVector(Cluster& cluster, std::int64_t n)
      : cluster_(&cluster),
        layout_{n, cluster.machines()},
        shards_(std::make_unique<std::vector<std::vector<T>>>(
            static_cast<std::size_t>(cluster.machines()))) {
    for (std::int64_t i = 0; i < cluster.machines(); ++i) {
      (*shards_)[static_cast<std::size_t>(i)].resize(
          static_cast<std::size_t>(layout_.size(i)));
    }
    register_resident();
  }

  /// Loads host data as the initial (already distributed) input; this
  /// models the model's assumption that "in the beginning, the input data
  /// is distributed across the machines" and costs no rounds.
  static DistVector from_host(Cluster& cluster, std::span<const T> data) {
    DistVector dv(cluster, static_cast<std::int64_t>(data.size()));
    // Fills the shards in place: their sizes (so their words) are the ones
    // registration read, so nothing needs marking.
    for (std::int64_t i = 0; i < cluster.machines(); ++i) {
      auto& loc = (*dv.shards_)[static_cast<std::size_t>(i)];
      const std::int64_t lo = dv.layout_.lo(i);
      for (std::int64_t k = 0; k < dv.layout_.size(i); ++k) {
        loc[static_cast<std::size_t>(k)] = data[static_cast<std::size_t>(lo + k)];
      }
    }
    return dv;
  }

  /// Reads the final output back to the host (no rounds; output reading).
  /// Requires the canonical layout.
  std::vector<T> to_host() const {
    MONGE_CHECK_MSG(is_balanced(), "to_host requires canonical layout");
    std::vector<T> out(static_cast<std::size_t>(layout_.total));
    for (std::int64_t i = 0; i < layout_.machines; ++i) {
      const auto& loc = (*shards_)[static_cast<std::size_t>(i)];
      std::copy(loc.begin(), loc.end(),
                out.begin() + static_cast<std::ptrdiff_t>(layout_.lo(i)));
    }
    return out;
  }

  ~DistVector() { unregister_resident(); }

  DistVector(DistVector&& other) noexcept
      : cluster_(other.cluster_),
        layout_(other.layout_),
        shards_(std::move(other.shards_)),
        resident_id_(std::exchange(other.resident_id_, -1)) {}
  DistVector& operator=(DistVector&& other) noexcept {
    if (this != &other) {
      unregister_resident();
      cluster_ = other.cluster_;
      layout_ = other.layout_;
      shards_ = std::move(other.shards_);
      resident_id_ = std::exchange(other.resident_id_, -1);
    }
    return *this;
  }
  DistVector(const DistVector&) = delete;
  DistVector& operator=(const DistVector&) = delete;

  Cluster& cluster() const { return *cluster_; }
  std::int64_t size() const { return layout_.total; }
  const BlockLayout& layout() const { return layout_; }

  /// Machine `machine`'s shard, marked for the audit to re-read; inside a
  /// round, only that machine's closure may take it.
  std::vector<T>& local(std::int64_t machine) {
    cluster_->mark_resident(resident_id_, machine);
    return (*shards_)[static_cast<std::size_t>(machine)];
  }
  const std::vector<T>& local(std::int64_t machine) const {
    return (*shards_)[static_cast<std::size_t>(machine)];
  }

  bool is_balanced() const {
    for (std::int64_t i = 0; i < layout_.machines; ++i) {
      if (static_cast<std::int64_t>(
              (*shards_)[static_cast<std::size_t>(i)].size()) !=
          layout_.size(i)) {
        return false;
      }
    }
    return true;
  }

 private:
  void register_resident() {
    constexpr std::int64_t words_per =
        static_cast<std::int64_t>(util::kWordsPerItem<T>);
    std::vector<std::vector<T>>* shards = shards_.get();
    ResidentHooks hooks;
    hooks.words = [shards](std::int64_t machine) {
      return static_cast<std::int64_t>(
                 (*shards)[static_cast<std::size_t>(machine)].size()) *
             words_per;
    };
    hooks.checkpoint = [shards](std::int64_t machine) {
      return util::pack_words<T>((*shards)[static_cast<std::size_t>(machine)]);
    };
    hooks.restore = [shards](std::int64_t machine,
                             std::span<const Word> blob) {
      (*shards)[static_cast<std::size_t>(machine)] =
          util::unpack_words<T>(blob);
    };
    resident_id_ = cluster_->register_resident(std::move(hooks));
  }
  void unregister_resident() {
    if (resident_id_ >= 0) cluster_->unregister_resident(resident_id_);
  }

  Cluster* cluster_;
  BlockLayout layout_;
  std::unique_ptr<std::vector<std::vector<T>>> shards_;
  /// Registration with cluster_'s audit; -1 once moved from.
  std::int64_t resident_id_ = -1;
};

}  // namespace monge::mpc
