// Cluster utilization ledger: per-node rollups of the node tier's per-CPU
// UtilizationLedger views (docs/CLUSTER.md).
//
// The ledger caches nothing.  Every read sums the node's per-CPU committed
// and capacity words — the same Q32.32 raw quanta the node's schedulers
// admit against — so the rollup is exact integer arithmetic with no float
// drift and can never go stale.  Capacity follows the node's current state:
// a drained or down node offers zero, while its committed words (frozen,
// for a down node) are still read for post-mortem inspection.  Because the
// node ledger already carries the resilience controller's degraded
// capacity publication (StormController -> set_capacity), a storm-flagged
// node's degradation propagates cluster-wide through the same rollup; the
// entry additionally counts storm-flagged CPUs so placement can
// deprioritize the whole node.
#pragma once

#include <cstdint>
#include <vector>

#include "rt/fixed_point.hpp"

namespace hrt::global {
class UtilizationLedger;
}
namespace hrt::resilience {
class StormController;
}

namespace hrt::cluster {

enum class NodeState : std::uint8_t {
  kUp,        // advancing, placeable
  kDraining,  // advancing, jobs being moved off, no new placements
  kDrained,   // advancing, empty of cluster jobs, no new placements
  kDown,      // frozen at its failure time
};

[[nodiscard]] const char* node_state_name(NodeState s);

class ClusterLedger {
 public:
  struct Entry {
    rt::fp::Raw committed = 0;  // sum of per-CPU committed words
    rt::fp::Raw capacity = 0;   // sum of published (degraded) capacities;
                                // 0 while the node is drained or down
    std::uint32_t storm_cpus = 0;
  };

  explicit ClusterLedger(std::uint32_t nodes) : nodes_(nodes) {}

  /// Point `node` at its per-CPU view, its storm controller and the
  /// controller's live state for it.  All three must outlive every read.
  void bind(std::uint32_t node, const global::UtilizationLedger* cpus,
            const resilience::StormController* storm, const NodeState* state) {
    nodes_[node] = Source{cpus, storm, state};
  }

  [[nodiscard]] std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  /// The node's rollup, summed now.
  [[nodiscard]] Entry entry(std::uint32_t node) const;

  [[nodiscard]] double committed(std::uint32_t node) const {
    return rt::fp::to_double(entry(node).committed);
  }
  /// Capacity the cluster may place against: zero once the node is drained
  /// or down.  (A draining node keeps its capacity on the books for what it
  /// still runs, but the controller's placement loop excludes it.)
  [[nodiscard]] double capacity(std::uint32_t node) const {
    return rt::fp::to_double(entry(node).capacity);
  }
  [[nodiscard]] bool storm_flagged(std::uint32_t node) const {
    return entry(node).storm_cpus > 0;
  }

  [[nodiscard]] double total_committed() const;

 private:
  struct Source {
    const global::UtilizationLedger* cpus = nullptr;
    const resilience::StormController* storm = nullptr;
    const NodeState* state = nullptr;
  };

  std::vector<Source> nodes_;
};

}  // namespace hrt::cluster
