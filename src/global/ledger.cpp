#include "global/ledger.hpp"

namespace hrt::global {

UtilizationLedger::UtilizationLedger(std::uint32_t num_cpus, double capacity)
    : entries_(num_cpus) {
  for (std::uint32_t c = 0; c < num_cpus; ++c) set_capacity(c, capacity);
}

double UtilizationLedger::total_committed() const {
  double total = 0.0;
  for (std::uint32_t c = 0; c < num_cpus(); ++c) total += committed(c);
  return total;
}

}  // namespace hrt::global
