#include "vcomp/sim/compact.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "vcomp/obs/metrics.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::sim {

namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::kNoGate;

constexpr std::int8_t kUnknown = -1;

/// Types whose output is invariant under pin permutation (their dedupe
/// key sorts the resolved pins).
bool symmetric(GateType t) {
  switch (t) {
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor:
    case GateType::Xor:
    case GateType::Xnor:
      return true;
    default:
      return false;
  }
}

/// FNV-1a over the key elements (type tag + resolved pins).
struct KeyHash {
  std::size_t operator()(const std::vector<GateId>& k) const {
    std::uint64_t h = 1469598103934665603ull;
    for (GateId v : k) {
      h ^= v;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

Compaction compact_netlist(const netlist::Netlist& nl,
                           const CompactOptions& opts) {
  VCOMP_REQUIRE(nl.finalized(), "compact_netlist requires a finalized netlist");
  const std::size_t n = nl.num_gates();
  VCOMP_REQUIRE(opts.protect.empty() || opts.protect.size() == n,
                "CompactOptions::protect must be empty or one byte per gate");

  const auto protect = [&](GateId g) -> std::uint8_t {
    return opts.protect.empty() ? std::uint8_t{0} : opts.protect[g];
  };

  Compaction out;
  out.stats.gates_before = n;
  out.alias.assign(n, kNoGate);
  out.remap.assign(n, kNoGate);

  std::vector<char> kept(n, 0);
  // Consumers of folded fault-carrying gates: their pins receive fault
  // forces, so they must stay materialized and contribute no derivations.
  std::vector<char> forced_keep(n, 0);
  // Kept, fault-free, force-free NOT gate -> its resolved input.  Only
  // such inverters satisfy out == ~in in *every* tracked machine, which
  // is what complement detection and double-inverter folding rely on.
  std::vector<GateId> not_input(n, kNoGate);
  // Robust constant value of a kept gate (holds in every machine).
  std::vector<std::int8_t> const_val(n, kUnknown);
  // Canonical materialized const-0 / const-1 gates (first discovered).
  GateId const_gate[2] = {kNoGate, kNoGate};
  std::unordered_map<std::vector<GateId>, GateId, KeyHash> dedupe_map;

  // Folding a gate with tracked faults turns those faults into pin forces
  // on the gate's original combinational consumers; mark them now (they
  // are all later in topo order, so marking always precedes processing).
  const auto force_keep_consumers = [&](GateId g) {
    for (GateId c : nl.gate(g).fanout)
      if (nl.gate(c).type != GateType::Dff) forced_keep[c] = 1;
  };

  for (GateId g : nl.inputs()) {
    out.alias[g] = g;
    kept[g] = 1;
  }
  for (GateId g : nl.dffs()) {
    out.alias[g] = g;
    kept[g] = 1;
  }

  std::vector<GateId> pins;  // resolved fanins of the current gate
  std::vector<GateId> key;   // dedupe key scratch

  for (GateId g : nl.topo_order()) {
    const netlist::Gate& gate = nl.gate(g);
    const std::uint8_t p = protect(g);
    const bool faulty = (p & kProtectFaulty) != 0;
    const bool hard_keep = forced_keep[g] != 0 || (p & kProtectKeep) != 0;

    pins.clear();
    for (GateId f : gate.fanin) pins.push_back(out.alias[f]);

    const auto fold_to = [&](GateId target, std::size_t& stat) {
      out.alias[g] = target;
      if (faulty) force_keep_consumers(g);
      ++stat;
    };
    const auto keep = [&] {
      out.alias[g] = g;
      kept[g] = 1;
      if (gate.type == GateType::Not && !faulty && !hard_keep &&
          (p & kProtectNoDedupe) == 0)
        not_input[g] = pins[0];
    };

    if (hard_keep) {
      // Pins may carry fault forces (or the caller pinned the gate), so
      // neither transforms nor derivations are sound here.
      out.alias[g] = g;
      kept[g] = 1;
      continue;
    }

    // Buffer / inverter-chain folding.  Sound even on fault-carrying
    // gates: the good value flows through unchanged, and the fault layer
    // expands the gate's faults into pin forces on its (kept) consumers.
    if (gate.type == GateType::Buf) {
      fold_to(pins[0], out.stats.buffers_folded);
      continue;
    }
    if (gate.type == GateType::Not && not_input[pins[0]] != kNoGate) {
      // Not(Not(s)) == s; not_input guarantees the middle inverter is
      // fault-free and force-free, so the identity holds in every machine.
      fold_to(not_input[pins[0]], out.stats.buffers_folded);
      continue;
    }

    if (faulty) {
      // A fault-carrying gate can never be aliased to another signal (its
      // faulty value diverges), be a dedupe rep, or source a constant.
      out.alias[g] = g;
      kept[g] = 1;
      continue;
    }

    // Robust constant derivation.  Everything it reads (const_val,
    // not_input, pin identity) is fault-free and force-free, so a derived
    // constant holds in every tracked machine, not just the good one.
    {
      const std::size_t np = pins.size();
      bool all_known = true;
      bool any0 = false, any1 = false;
      int and_v = 1, or_v = 0, xor_v = 0;
      for (std::size_t i = 0; i < np; ++i) {
        const std::int8_t c = const_val[pins[i]];
        if (c == kUnknown) {
          all_known = false;
          continue;
        }
        if (c != 0)
          any1 = true;
        else
          any0 = true;
        and_v &= c;
        or_v |= c;
        xor_v ^= c;
      }
      bool comp = false;  // some pin is the complement of another pin
      for (std::size_t i = 0; i < np && !comp; ++i) {
        const GateId s = not_input[pins[i]];
        if (s == kNoGate) continue;
        for (std::size_t j = 0; j < np; ++j)
          if (pins[j] == s) {
            comp = true;
            break;
          }
      }
      std::int8_t core = kUnknown;  // pre-bubble value of the gate body
      switch (gate.type) {
        case GateType::Buf:
        case GateType::Not:
          if (all_known) core = static_cast<std::int8_t>(or_v);
          break;
        case GateType::And:
        case GateType::Nand:
          if (any0 || comp)
            core = 0;
          else if (all_known)
            core = static_cast<std::int8_t>(and_v);
          break;
        case GateType::Or:
        case GateType::Nor:
          if (any1 || comp)
            core = 1;
          else if (all_known)
            core = static_cast<std::int8_t>(or_v);
          break;
        case GateType::Xor:
        case GateType::Xnor:
          if (all_known)
            core = static_cast<std::int8_t>(xor_v);
          else if (np == 2 && pins[0] == pins[1])
            core = 0;  // tied pins cancel in every machine
          else if (np == 2 && comp)
            core = 1;
          break;
        default:
          break;
      }
      if (core != kUnknown) {
        const std::int8_t cv = netlist::is_inverting(gate.type)
                                   ? static_cast<std::int8_t>(1 - core)
                                   : core;
        if (const_gate[cv] != kNoGate) {
          fold_to(const_gate[cv], out.stats.consts_folded);
          continue;
        }
        // First gate discovered to compute this constant stays
        // materialized as the canonical const signal.
        const_gate[cv] = g;
        const_val[g] = cv;
        out.alias[g] = g;
        kept[g] = 1;
        continue;
      }
    }

    // Structural dedupe over the resolved pins.
    if ((p & kProtectNoDedupe) == 0) {
      key.clear();
      key.push_back(static_cast<GateId>(gate.type));
      key.insert(key.end(), pins.begin(), pins.end());
      if (symmetric(gate.type)) std::sort(key.begin() + 1, key.end());
      const auto [it, inserted] = dedupe_map.try_emplace(key, g);
      if (!inserted) {
        fold_to(it->second, out.stats.gates_deduped);
        continue;
      }
    }

    keep();
  }

  // Rebuild: sources first (preserving input / DFF indices), then kept
  // combinational gates in original topo order — alias targets are always
  // processed before their readers, so every remap lookup is resolved.
  netlist::Netlist& cn = out.nl;
  for (GateId g : nl.inputs()) out.remap[g] = cn.add_input(nl.gate(g).name);
  for (GateId g : nl.dffs()) out.remap[g] = cn.add_dff(nl.gate(g).name);
  std::vector<GateId> fanin;
  for (GateId g : nl.topo_order()) {
    if (kept[g] == 0) continue;
    const netlist::Gate& gate = nl.gate(g);
    fanin.clear();
    for (GateId f : gate.fanin) fanin.push_back(out.remap[out.alias[f]]);
    out.remap[g] = cn.add_gate(gate.type, gate.name,
                               std::vector<GateId>(fanin));
  }
  for (GateId dff : nl.dffs())
    cn.set_dff_input(out.remap[dff], out.new_id(nl.gate(dff).fanin[0]));
  for (GateId o : nl.outputs()) cn.mark_output(out.new_id(o));
  cn.finalize();
  out.stats.gates_after = cn.num_gates();

  static const auto c_bufs = obs::counter("compact.buffers_folded");
  static const auto c_consts = obs::counter("compact.consts_folded");
  static const auto c_dedup = obs::counter("compact.gates_deduped");
  c_bufs.add(out.stats.buffers_folded);
  c_consts.add(out.stats.consts_folded);
  c_dedup.add(out.stats.gates_deduped);
  return out;
}

}  // namespace vcomp::sim
