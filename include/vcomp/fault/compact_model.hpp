#pragma once

/// \file compact_model.hpp
/// Fault-aware wrapper around netlist compaction.
///
/// The stitching tracker wants to simulate on the compacted EvalGraph
/// (fewer gates per sweep) while classifying the *original* tracked fault
/// set with byte-identical verdicts.  CompactModel owns that bridge:
///
///   1. it derives per-gate protection flags from the tracked faults so
///      compact_netlist() never performs a transform a faulty machine
///      could observe (see compact.hpp for the soundness rules);
///   2. it rewrites every tracked fault into a MappedFault on the
///      compacted graph.  Faults on kept gates map to the same site under
///      new ids.  Stem faults on folded gates (buffer / inverter-chain
///      members) expand into the equivalent set of pin forces on the
///      gate's original consumers — which the protection flags forced to
///      stay materialized exactly so these sites exist.
///
/// A MappedFault with no sites is genuinely unobservable (the folded
/// signal drove nothing); simulators report no effect for it.
///
/// Identity mode (enable = false; the compaction A/B oracle builds one)
/// keeps the original netlist's graph and trivial one-site mappings, so callers
/// run one unified code path either way.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "vcomp/fault/fault.hpp"
#include "vcomp/sim/compact.hpp"
#include "vcomp/sim/eval_graph.hpp"

namespace vcomp::fault {

/// One force site of a mapped fault, in compacted-graph ids.
struct MappedSite {
  netlist::GateId gate = netlist::kNoGate;
  /// -1: stem force on `gate`; >= 0: force on that fanin pin of `gate`
  /// (a pin of a Dff gate perturbs only the captured state).
  std::int16_t pin = -1;

  friend bool operator==(const MappedSite&, const MappedSite&) = default;
};

/// A tracked fault translated onto the compacted graph: every site forces
/// the same stuck value (they all express one original stuck-at line).
/// Empty `sites` means the fault is unobservable.
struct MappedFault {
  std::vector<MappedSite> sites;
  std::uint8_t stuck = 0;
};

class CompactModel {
 public:
  /// Builds the compacted graph for \p original's netlist, protecting and
  /// remapping the tracked \p faults.  With \p enable false the model is
  /// the identity: graph() is \p original itself (shared, no recompile)
  /// and every fault maps to its own single site.  \p base carries the
  /// pass toggles; its protect vector is overwritten from \p faults.
  CompactModel(sim::EvalGraph::Ref original, std::span<const Fault> faults,
               bool enable, sim::CompactOptions base = {});

  bool enabled() const { return compaction_ != nullptr; }

  /// The graph simulators should run on (compacted, or original when
  /// disabled).
  const sim::EvalGraph::Ref& graph() const { return graph_; }

  /// The netlist behind graph().
  const netlist::Netlist& netlist() const { return graph_->netlist(); }

  /// Mapped form of faults[i] (same indexing as the constructor span).
  const MappedFault& mapped(std::size_t i) const { return mapped_[i]; }
  std::size_t num_faults() const { return mapped_.size(); }

  /// Compacted-graph gate carrying the value of original gate \p orig
  /// (identity when disabled).
  netlist::GateId value_id(netlist::GateId orig) const {
    return compaction_ == nullptr ? orig : compaction_->new_id(orig);
  }

  /// Compaction details; nullptr in identity mode.
  const sim::Compaction* compaction() const { return compaction_.get(); }

 private:
  // unique_ptr: EvalGraph holds a pointer to the contained netlist, so
  // the Compaction must have a stable address for the model's lifetime.
  std::unique_ptr<sim::Compaction> compaction_;
  sim::EvalGraph::Ref graph_;
  std::vector<MappedFault> mapped_;
};

}  // namespace vcomp::fault
