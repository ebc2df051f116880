#include "netsim/simulator.h"

namespace cavenet::netsim {

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty()) {
    now_ = scheduler_.next_time();
    scheduler_.run_one();
  }
}

void Simulator::run_until(SimTime until) {
  stopped_ = false;
  while (!stopped_ && !scheduler_.empty() &&
         scheduler_.next_time() <= until) {
    now_ = scheduler_.next_time();
    scheduler_.run_one();
  }
  if (!stopped_ && now_ < until) now_ = until;
}

}  // namespace cavenet::netsim
