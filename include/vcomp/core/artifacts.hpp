#pragma once

/// \file artifacts.hpp
/// Shared immutable per-circuit derivations.
///
/// Compiling the evaluation graph, computing SCOAP testability scores and
/// building the fault-aware compacted simulation model are the expensive
/// setup steps of every stitching run — and all three depend only on the
/// netlist and the collapsed fault universe, never on per-run options or
/// mutable run state.  CircuitArtifacts
/// bundles one shared copy of each behind const accessors, so any number
/// of concurrent StitchEngine runs (and, above them, serve jobs hitting
/// the content-addressed artifact registry) can alias them safely.

#include <memory>

#include "vcomp/fault/collapse.hpp"
#include "vcomp/fault/compact_model.hpp"
#include "vcomp/sim/eval_graph.hpp"
#include "vcomp/tmeas/scoap.hpp"

namespace vcomp::core {

struct CircuitArtifacts {
  /// Compiled evaluation graph of the original netlist.
  sim::EvalGraph::Ref graph;
  /// SCOAP controllability/observability scores over `graph`.
  std::shared_ptr<const tmeas::Scoap> scoap;
  /// Fault-aware compacted simulation model.
  std::shared_ptr<const fault::CompactModel> compact;

  /// Builds the full set for \p nl: graph, then scoap and the compact
  /// model over it.  \p faults must be the collapsed list of \p nl.
  static CircuitArtifacts build(const netlist::Netlist& nl,
                                const fault::CollapsedFaults& faults);
};

}  // namespace vcomp::core
