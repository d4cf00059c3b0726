#pragma once

/// \file compact.hpp
/// Structural compaction of a finalized netlist.
///
/// netgen (and real synthesis output) carries plenty of structure that a
/// simulator pays for on every sweep but that never changes a value:
/// buffer and inverter chains, gates that recompute an existing signal,
/// and gates whose output is constant for every stimulus (tied pins,
/// complement pairs).  compact_netlist() removes them:
///
///   * buffer folding   — Buf(x) -> x, Not(Not(x)) -> x;
///   * const folding    — Xor(a,a), And(a,Not(a)), gates fed by robust
///                        constants, ... alias to one canonical const gate
///                        per polarity (the first such gate discovered
///                        stays materialized as that canonical signal);
///   * structural dedupe — two gates of the same type over the same
///                        resolved pins (sorted for symmetric types)
///                        collapse to the earlier one, which also shares
///                        inverters (Not is just a 1-pin dedupe key).
///
/// The result is an *alias model*: every original gate maps to a
/// value-equal KEPT gate (`alias`), and every kept gate maps to its id in
/// the rebuilt netlist (`remap`).  There are no inversion flags — an
/// alias target always carries the exact value of the gate it replaces —
/// so readouts (outputs, DFF next-states) remap without special cases,
/// and input / DFF / output *indices* are preserved.
///
/// Fault-robustness contract.  Compaction must not change what any
/// tracked faulty machine computes, so every transform is gated on the
/// caller-provided per-gate protection flags:
///
///   * kProtectFaulty  — tracked faults live on this gate.  It can still
///                       be folded when its value flows through unchanged
///                       (Buf / double-inverter), because the fault layer
///                       expands those faults into pin forces on the
///                       gate's original consumers — which this pass
///                       therefore forces to stay materialized.  It can
///                       never be a dedupe representative, a const
///                       source, or any other gate's alias target.
///   * kProtectNoDedupe — must not be absorbed as a dedupe victim.
///   * kProtectKeep    — must stay materialized untouched (e.g. a gate
///                       with faulty input pins, or one driving a primary
///                       output that a folded fault would need forcing).
///
/// Const values and complement relations are themselves only derived
/// from fault-free, force-free gates, so they hold in every machine.
///
/// Determinism: the pass is a single topological sweep with
/// first-discovered-wins canonicalization — same input, same output.

#include <cstdint>
#include <vector>

#include "vcomp/netlist/netlist.hpp"

namespace vcomp::sim {

/// Per-gate protection flags (bitwise-or'able).
enum ProtectFlag : std::uint8_t {
  kProtectFaulty = 1,    ///< tracked faults on this gate's output value
  kProtectNoDedupe = 2,  ///< may not be absorbed as a dedupe victim
  kProtectKeep = 4,      ///< must stay materialized, no transform at all
};

struct CompactOptions {
  /// Empty (nothing protected) or one flag byte per original gate.
  std::vector<std::uint8_t> protect;
};

struct CompactStats {
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::size_t buffers_folded = 0;  ///< Buf + double-inverter folds
  std::size_t consts_folded = 0;   ///< gates aliased to a const gate
  std::size_t gates_deduped = 0;   ///< structural-dedupe victims
};

/// Result of compact_netlist(): the rebuilt netlist plus the two-level
/// id map original -> kept original (`alias`) -> new (`remap`).
struct Compaction {
  netlist::Netlist nl;  ///< compacted, finalized netlist
  /// Original gate -> value-equal kept original gate (self when kept).
  std::vector<netlist::GateId> alias;
  /// Kept original gate -> id in `nl`; kNoGate for folded gates.
  std::vector<netlist::GateId> remap;
  CompactStats stats;

  /// New id carrying the exact value of original gate \p orig.
  netlist::GateId new_id(netlist::GateId orig) const {
    return remap[alias[orig]];
  }
  /// True when \p orig survived as its own gate in `nl`.
  bool kept(netlist::GateId orig) const {
    return remap[orig] != netlist::kNoGate;
  }
};

/// Runs the compaction sweep over \p nl (which must be finalized).
Compaction compact_netlist(const netlist::Netlist& nl,
                           const CompactOptions& opts = {});

}  // namespace vcomp::sim
