#include "vcomp/fault/compact_model.hpp"

#include <utility>

#include "vcomp/util/assert.hpp"

namespace vcomp::fault {

using netlist::GateId;
using netlist::GateType;
using netlist::kNoGate;

namespace {

bool flow_through(GateType t) {
  return t == GateType::Buf || t == GateType::Not;
}

}  // namespace

CompactModel::CompactModel(sim::EvalGraph::Ref original,
                           std::span<const Fault> faults, bool enable,
                           sim::CompactOptions base) {
  VCOMP_REQUIRE(original != nullptr, "CompactModel requires a graph");
  mapped_.reserve(faults.size());

  if (!enable) {
    graph_ = std::move(original);
    for (const Fault& f : faults)
      mapped_.push_back(MappedFault{{MappedSite{f.gate, f.pin}}, f.stuck});
    return;
  }
  const netlist::Netlist& nl = original->netlist();

  // Protection flags: a transform is only legal when no tracked faulty
  // machine can observe it (rules in compact.hpp).
  std::vector<std::uint8_t> protect(nl.num_gates(), 0);
  std::vector<std::uint8_t> is_po(nl.num_gates(), 0);
  for (GateId o : nl.outputs()) is_po[o] = 1;
  for (const Fault& f : faults) {
    const GateType t = nl.gate(f.gate).type;
    protect[f.gate] |= sim::kProtectFaulty | sim::kProtectNoDedupe;
    if (f.pin >= 0 && t != GateType::Dff && !flow_through(t)) {
      // A forced input pin needs the gate body (and its pin order), so the
      // site must survive untouched.  Buf/Not pin forces are equivalent to
      // stem forces and may still flow-through fold; Dff data-pin faults
      // perturb only the captured state of an always-kept flip-flop.
      protect[f.gate] |= sim::kProtectKeep;
    }
    if (is_po[f.gate] != 0) {
      // A folded faulty gate expands into *pin* forces on its consumers;
      // a primary-output readout has no pin to force, so the driver of an
      // observed signal must stay materialized.
      protect[f.gate] |= sim::kProtectKeep;
    }
  }
  base.protect = std::move(protect);

  compaction_ =
      std::make_unique<sim::Compaction>(sim::compact_netlist(nl, base));
  graph_ = sim::EvalGraph::compile(compaction_->nl);
  const sim::Compaction& c = *compaction_;

  for (const Fault& f : faults) {
    MappedFault mf;
    mf.stuck = f.stuck;
    const GateType t = nl.gate(f.gate).type;
    if (c.kept(f.gate)) {
      // Kept gates preserve their pin order, so stem and pin sites both
      // translate directly to the new id.
      mf.sites.push_back({c.remap[f.gate], f.pin});
    } else {
      // The site gate was folded — only flow-through gates with tracked
      // faults ever are.  The fault forces the folded gate's *output*, so
      // it reappears as that value forced onto every original consumer
      // pin of the signal (kProtectFaulty kept those consumers alive).
      // A pin-0 fault on a folded Not forces its input; consumers see the
      // inverted value.
      VCOMP_ENSURE(flow_through(t), "non-flow-through fault site folded");
      if (f.pin >= 0 && t == GateType::Not)
        mf.stuck = static_cast<std::uint8_t>(1 - f.stuck);
      for (GateId cons : nl.gate(f.gate).fanout) {
        const auto& cg = nl.gate(cons);
        if (cg.type == GateType::Dff) {
          mf.sites.push_back({c.remap[cons], 0});
          continue;
        }
        VCOMP_ENSURE(c.kept(cons),
                     "consumer of a folded faulty gate was folded");
        for (std::size_t q = 0; q < cg.fanin.size(); ++q)
          if (cg.fanin[q] == f.gate)
            mf.sites.push_back(
                {c.remap[cons], static_cast<std::int16_t>(q)});
      }
      // No consumers: the folded signal drives nothing observable and the
      // fault is untestable; an empty site list encodes exactly that.
    }
    mapped_.push_back(std::move(mf));
  }
}

}  // namespace vcomp::fault
