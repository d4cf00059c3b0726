#include "vcomp/netgen/netgen.hpp"

#include <algorithm>
#include <bit>
#include <deque>

#include "vcomp/sim/word_sim.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/rng.hpp"
#include "vcomp/obs/obs.hpp"

namespace vcomp::netgen {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

namespace {

GateType pick_type(Rng& rng, double easiness) {
  // Weighted gate mix; easiness suppresses XOR-class gates (which create
  // random-pattern-resistant logic) in favour of simple AND/OR forms.
  const std::uint32_t xor_w = static_cast<std::uint32_t>(8 * (1.0 - easiness));
  const std::uint32_t xnor_w = static_cast<std::uint32_t>(4 * (1.0 - easiness));
  const std::uint32_t weights[] = {
      25,      // NAND
      15,      // NOR
      20,      // AND
      15,      // OR
      10,      // NOT
      xor_w,   // XOR
      xnor_w,  // XNOR
      2,       // BUF
  };
  const GateType types[] = {GateType::Nand, GateType::Nor, GateType::And,
                            GateType::Or,   GateType::Not, GateType::Xor,
                            GateType::Xnor, GateType::Buf};
  std::uint32_t total = 0;
  for (auto w : weights) total += w;
  std::uint32_t r = static_cast<std::uint32_t>(rng.below(total));
  for (std::size_t i = 0; i < std::size(weights); ++i) {
    if (r < weights[i]) return types[i];
    r -= weights[i];
  }
  return GateType::Nand;
}

}  // namespace

Netlist generate(const CircuitProfile& p) {
  static const obs::Counter circuits = obs::counter("netgen.circuits");
  static const obs::Counter gates = obs::counter("netgen.gates");
  static const obs::Timer gen_seconds = obs::timer("netgen.seconds");
  const obs::Span span("netgen.generate", gen_seconds);
  VCOMP_REQUIRE(p.num_ff > 0, "profile needs at least one flip-flop");
  VCOMP_REQUIRE(p.num_gates >= p.num_po, "gate budget below PO count");
  Rng rng(p.seed);
  Netlist nl;

  std::vector<GateId> sources;
  for (std::size_t i = 0; i < p.num_pi; ++i)
    sources.push_back(nl.add_input("PI" + std::to_string(i)));
  for (std::size_t i = 0; i < p.num_ff; ++i)
    sources.push_back(nl.add_dff("FF" + std::to_string(i)));

  // Signals available as fanins, and a usage count per signal.
  std::vector<GateId> signals = sources;
  std::vector<std::uint32_t> uses(nl.num_gates() + p.num_gates + 64, 0);

  // Unconsumed sources are drained with priority so no PI / scan cell ends
  // up functionally dead.
  std::deque<GateId> source_queue(sources.begin(), sources.end());

  const double shallow_p = 0.25 + 0.55 * p.easiness;
  std::vector<GateId> comb;
  comb.reserve(p.num_gates);
  // Levels tracked during construction (Netlist computes them only at
  // finalize) so depth_limit can steer fanin choices.
  std::vector<std::uint32_t> level(nl.num_gates() + p.num_gates + 64, 0);

  // Balance-aware construction: every signal carries a 64-pattern random
  // signature; near-constant candidates are re-rolled.  Deep unstructured
  // AND/OR logic otherwise decays toward constants, which manifests as
  // 20-40% redundant faults — far above real-circuit levels.
  std::vector<std::uint64_t> sig(nl.num_gates() + p.num_gates + 64, 0);
  Rng sig_rng = rng.fork();
  for (GateId s : sources) sig[s] = sig_rng.next();
  auto popcount_balanced = [](std::uint64_t w) {
    const int n = std::popcount(w);
    return n >= 14 && n <= 50;
  };

  for (std::size_t i = 0; i < p.num_gates; ++i) {
    GateType t = GateType::Nand;
    std::vector<GateId> fanin;
    std::uint64_t value = 0;

    for (int attempt = 0; attempt < 6; ++attempt) {
      t = pick_type(rng, p.easiness);
      std::size_t arity = 1;
      if (t != GateType::Not && t != GateType::Buf) {
        arity = 2;
        while (arity < p.max_arity && rng.chance(1, 4)) ++arity;
        // The duplicate-pin reject below needs `arity` distinct candidates,
        // and the pool for gate i is sources + the i gates built so far: a
        // tiny profile (say 1 PI + 2 FFs with max_arity 4) has only 3
        // distinct signals for gate 0, so an unclamped arity spins forever.
        // The clamp binds exactly when the old loop could not terminate, so
        // every previously-terminating seed is unchanged.
        arity = std::min(arity, sources.size() + comb.size());
      }
      fanin.clear();
      while (fanin.size() < arity) {
        GateId cand;
        if (!source_queue.empty() && rng.chance(2, 3)) {
          cand = source_queue.front();
          source_queue.pop_front();
        } else if (rng.uniform() < shallow_p || comb.empty()) {
          cand = sources[rng.below(sources.size())];
        } else {
          cand = comb[rng.below(comb.size())];
        }
        if (p.depth_limit > 0 && level[cand] + 1 >= p.depth_limit)
          cand = sources[rng.below(sources.size())];  // keep cones shallow
        if (std::find(fanin.begin(), fanin.end(), cand) != fanin.end())
          continue;  // no duplicate pins
        fanin.push_back(cand);
      }
      std::vector<std::uint64_t> vals;
      vals.reserve(fanin.size());
      for (GateId f : fanin) vals.push_back(sig[f]);
      value = sim::word_eval(t, vals);
      // Reject degenerate functions: near-constant outputs, and outputs
      // that merely copy or invert a fanin (a symptom of correlated
      // inputs, which breeds untestable faults).
      bool degenerate = !popcount_balanced(value);
      if (t != GateType::Not && t != GateType::Buf)
        for (std::uint64_t v : vals)
          degenerate |= (value == v) || (value == ~v);
      if (!degenerate) break;
    }

    // Appending (not operator+) dodges a gcc-12 -O3 -Wrestrict false
    // positive on "literal" + std::string.
    std::string name = "G";
    name += std::to_string(i);
    GateId id = nl.add_gate(t, std::move(name), fanin);
    sig[id] = value;
    for (GateId f : fanin) level[id] = std::max(level[id], level[f] + 1);
    for (GateId f : fanin) ++uses[f];
    comb.push_back(id);
    signals.push_back(id);
  }

  // Wire primary outputs to distinct, preferably unconsumed gates.
  std::vector<GateId> unused;
  for (GateId g : comb)
    if (uses[g] == 0) unused.push_back(g);
  rng.shuffle(unused);

  std::vector<std::uint8_t> taken(nl.num_gates(), 0);
  std::vector<GateId> po_choices;
  for (GateId g : unused) {
    if (po_choices.size() == p.num_po) break;
    po_choices.push_back(g);
    taken[g] = 1;
  }
  while (po_choices.size() < p.num_po) {
    GateId g = comb[rng.below(comb.size())];
    if (taken[g]) continue;
    po_choices.push_back(g);
    taken[g] = 1;
  }
  for (GateId g : po_choices) {
    nl.mark_output(g);
    ++uses[g];
  }

  // Wire flip-flop next-states, preferring still-unconsumed gates.
  std::deque<GateId> ff_pool;
  for (GateId g : unused)
    if (uses[g] == 0) ff_pool.push_back(g);
  for (std::size_t i = 0; i < p.num_ff; ++i) {
    GateId src;
    if (!ff_pool.empty()) {
      src = ff_pool.front();
      ff_pool.pop_front();
    } else {
      src = comb[rng.below(comb.size())];
    }
    nl.set_dff_input(nl.dffs()[i], src);
    ++uses[src];
  }

  // Absorb any still-dangling signal (gate or unconsumed source) into the
  // fabric.  Preferred: append it as an extra pin on a multi-input gate
  // created later (keeps the gate budget intact).  Fallback for stragglers
  // near the end of the creation order: XOR it into a flip-flop next-state
  // — XOR keeps both operands observable, so no artificial redundancy.
  std::vector<GateId> dangling;
  for (GateId g : comb)
    if (uses[g] == 0) dangling.push_back(g);
  while (!source_queue.empty()) {
    dangling.push_back(source_queue.front());
    source_queue.pop_front();
  }
  auto is_multi_input = [&](GateId g) {
    const GateType t = nl.gate(g).type;
    return t == GateType::And || t == GateType::Nand || t == GateType::Or ||
           t == GateType::Nor || t == GateType::Xor || t == GateType::Xnor;
  };
  std::size_t absorb_idx = 0;
  for (GateId u : dangling) {
    if (uses[u] != 0) continue;  // source may have gained a use meanwhile
    GateId sink = netlist::kNoGate;
    for (int tries = 0; tries < 24; ++tries) {
      const GateId cand = comb[rng.below(comb.size())];
      if (cand > u && is_multi_input(cand) &&
          nl.gate(cand).fanin.size() < 9) {
        sink = cand;
        break;
      }
    }
    if (sink != netlist::kNoGate) {
      nl.add_fanin(sink, u);
    } else {
      const GateId ff = nl.dffs()[absorb_idx % p.num_ff];
      const GateId old_src = nl.gate(ff).fanin[0];
      const GateId mix = nl.add_gate(
          GateType::Xor, "ABS" + std::to_string(absorb_idx), {old_src, u});
      nl.set_dff_input(ff, mix);
      ++absorb_idx;
    }
    ++uses[u];
  }

  nl.finalize();
  circuits.inc();
  gates.add(nl.num_gates());
  return nl;
}

Netlist generate(const std::string& profile_name) {
  return generate(profile(profile_name));
}

}  // namespace vcomp::netgen
