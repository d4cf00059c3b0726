#pragma once

/// \file test_set.hpp
/// Full-scan deterministic test-set generation — the paper's "aTV" baseline
/// (the role ATALANTA played in the original flow).
///
/// Flow: random-pattern phase with fault dropping, deterministic PODEM for
/// the survivors, then reverse-order static compaction.  The result also
/// classifies every collapsed fault as detected / redundant / aborted, which
/// downstream stitching experiments use as the ground-truth detectable set.

#include <cstdint>
#include <vector>

#include "vcomp/atpg/fill.hpp"
#include "vcomp/atpg/podem.hpp"
#include "vcomp/fault/collapse.hpp"

namespace vcomp::fault {
class DiffSim;
}

namespace vcomp::atpg {

enum class FaultClass : std::uint8_t { Detected, Redundant, Aborted };

struct TestSetOptions {
  std::uint64_t seed = 1;
  /// Random phase stops after this many consecutive useless 64-pattern
  /// blocks (0 disables the random phase).
  std::size_t random_idle_blocks = 2;
  PodemOptions podem;
  bool reverse_compaction = true;
};

struct TestSetResult {
  std::vector<TestVector> vectors;
  std::vector<FaultClass> classes;  ///< per collapsed fault
  std::size_t num_detected = 0;
  std::size_t num_redundant = 0;
  std::size_t num_aborted = 0;

  /// Fault coverage over detectable faults (detected / (all - redundant)).
  double coverage() const {
    const std::size_t det = classes.size() - num_redundant;
    return det == 0 ? 1.0 : double(num_detected) / double(det);
  }
};

/// Generates a compacted full-scan test set for the collapsed faults.
TestSetResult generate_full_scan_tests(const netlist::Netlist& nl,
                                       const std::vector<fault::Fault>& faults,
                                       const TestSetOptions& options = {});

/// Broadcasts \p v into all 64 lanes of \p sim's good machine (inputs and
/// scan cells); the caller commits with DiffSim::commit_good().
void load_vector(fault::DiffSim& sim, const TestVector& v);

}  // namespace vcomp::atpg
