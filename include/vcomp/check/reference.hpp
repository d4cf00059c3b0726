#pragma once

/// \file reference.hpp
/// Naive event-free reference evaluators — the independent half of every
/// differential oracle.
///
/// These deliberately share *nothing* with the compiled evaluation core:
/// they walk the builder netlist's topo order, gather fanin values into a
/// scratch vector and call the plain (non-fused) gate kernels.  No CSR
/// arrays, no level partitions, no event queues, no lanes.  Slow and
/// obviously correct is the point.
///
/// The reference additionally exposes a deliberate-mutation hook: flipping
/// one truth-table entry of its NAND kernel lets the test suite prove that
/// the fuzz harness actually detects a seeded kernel bug (oracle
/// sensitivity check), without planting test hooks in production code.

#include <cstdint>
#include <vector>

#include "vcomp/fault/fault.hpp"
#include "vcomp/netlist/netlist.hpp"
#include "vcomp/scan/fabric.hpp"
#include "vcomp/scan/scan_chain.hpp"
#include "vcomp/sim/trit.hpp"
#include "vcomp/sim/word_sim.hpp"

namespace vcomp::check {

/// Deliberate reference-kernel mutations for harness self-tests.
enum class Mutation : std::uint8_t {
  None,
  /// The all-ones row of the NAND truth table reads 1 instead of 0.
  NandTruthTable,
};

/// Sets / reads the process-wide reference mutation (tests only).
void set_reference_mutation(Mutation m);
Mutation reference_mutation();

/// RAII guard restoring Mutation::None (keeps a throwing test from
/// poisoning every later oracle run in the same process).
class ScopedMutation {
 public:
  explicit ScopedMutation(Mutation m) { set_reference_mutation(m); }
  ~ScopedMutation() { set_reference_mutation(Mutation::None); }
  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;
};

/// Fault-free word evaluation: \p vals holds source words on entry and
/// every gate's word on return.
void ref_word_eval(const netlist::Netlist& nl, std::vector<sim::Word>& vals);

/// Faulty word evaluation with stuck-at \p f wedged into the walk (stem
/// faults override the signal, branch faults one sink pin).
void ref_faulty_eval(const netlist::Netlist& nl, std::vector<sim::Word>& vals,
                     const fault::Fault& f);

/// Captured next-state word of flip-flop \p i (null \p f = fault-free);
/// handles D-pin branch faults.
sim::Word ref_next_state(const netlist::Netlist& nl,
                         const std::vector<sim::Word>& vals,
                         const fault::Fault* f, std::size_t i);

/// Fault-free ternary evaluation via the plain trit kernels.
void ref_trit_eval(const netlist::Netlist& nl, std::vector<sim::Trit>& vals);

/// Independent bit-level scan shift: emits one observed bit per cycle (XOR
/// of \p out taps), slides the chain toward the tail and inserts
/// \p in_bits[j] at the head, one cell at a time.  Mirrors the documented
/// chain semantics without calling scan::FabricState, whose block-move
/// shift it checks.
void ref_shift(std::vector<std::uint8_t>& chain,
               const std::vector<std::uint8_t>& in_bits,
               const scan::ScanOutModel& out,
               std::vector<std::uint8_t>& observed);

/// Independent multi-chain scan shift: ref_shift applied per chain of a
/// flat chain-major fabric image.  \p in_bits carries plan[c] scan-in bits
/// per chain, chain-major; observed bits are concatenated in the same
/// order (exactly FabricState::shift's stream layout, computed without
/// touching scan::FabricState).  With one chain this is ref_shift.
void ref_fabric_shift(const scan::Fabric& fabric,
                      std::vector<std::uint8_t>& flat,
                      const scan::ShiftPlan& plan,
                      const std::vector<std::uint8_t>& in_bits,
                      const scan::FabricOut& out,
                      std::vector<std::uint8_t>& observed);

/// Independent capture: cell <- next_state (Normal) or cell ^= next_state
/// (VXor).
void ref_capture(std::vector<std::uint8_t>& chain,
                 const std::vector<std::uint8_t>& next_state,
                 scan::CaptureMode mode);

}  // namespace vcomp::check
