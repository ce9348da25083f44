#include "cluster/ledger.hpp"

#include "global/ledger.hpp"
#include "resilience/storm.hpp"

namespace hrt::cluster {

const char* node_state_name(NodeState s) {
  switch (s) {
    case NodeState::kUp:
      return "up";
    case NodeState::kDraining:
      return "draining";
    case NodeState::kDrained:
      return "drained";
    case NodeState::kDown:
      return "down";
  }
  return "?";
}

ClusterLedger::Entry ClusterLedger::entry(std::uint32_t node) const {
  const Source& src = nodes_[node];
  const bool offers =
      *src.state == NodeState::kUp || *src.state == NodeState::kDraining;
  Entry e;
  for (std::uint32_t c = 0; c < src.cpus->num_cpus(); ++c) {
    e.committed += src.cpus->committed_raw(c);
    if (offers) e.capacity += src.cpus->capacity_raw(c);
    if (src.storm->in_storm(c)) ++e.storm_cpus;
  }
  return e;
}

double ClusterLedger::total_committed() const {
  rt::fp::Raw sum = 0;
  for (std::uint32_t n = 0; n < num_nodes(); ++n) sum += entry(n).committed;
  return rt::fp::to_double(sum);
}

}  // namespace hrt::cluster
