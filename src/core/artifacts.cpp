#include "vcomp/core/artifacts.hpp"

namespace vcomp::core {

CircuitArtifacts CircuitArtifacts::build(const netlist::Netlist& nl,
                                         const fault::CollapsedFaults& faults) {
  CircuitArtifacts a;
  a.graph = sim::EvalGraph::compile(nl);
  a.scoap = std::make_shared<const tmeas::Scoap>(*a.graph);
  a.compact = std::make_shared<const fault::CompactModel>(
      a.graph, faults.faults(), /*enable=*/true);
  return a;
}

}  // namespace vcomp::core
