#include "event/truth.h"

namespace daspos {

std::vector<GenParticle> GenEvent::FinalState() const {
  std::vector<GenParticle> out;
  for (const GenParticle& p : particles) {
    if (p.IsFinalState()) out.push_back(p);
  }
  return out;
}

}  // namespace daspos
