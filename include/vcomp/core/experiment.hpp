#pragma once

/// \file experiment.hpp
/// Experiment harness shared by the table benches, the examples and the
/// integration tests.
///
/// A CircuitLab owns one benchmark circuit (generated from its profile),
/// its collapsed fault list and the full-shift baseline test set (aTV), and
/// can run any number of stitching configurations against them — Tables
/// 2–4 re-run the same eight circuits under different knobs, so the
/// expensive baseline is computed once.

#include <memory>
#include <optional>
#include <string>

#include "vcomp/core/stitch_engine.hpp"
#include "vcomp/netgen/netgen.hpp"

namespace vcomp::core {

class CircuitLab {
 public:
  explicit CircuitLab(const netgen::CircuitProfile& profile,
                      const atpg::TestSetOptions& baseline_options = {});

  /// Wraps an existing netlist (e.g. the paper's example circuit).
  CircuitLab(std::string name, netlist::Netlist nl,
             const atpg::TestSetOptions& baseline_options = {});

  const std::string& name() const { return name_; }
  const netlist::Netlist& netlist() const { return nl_; }
  const fault::CollapsedFaults& faults() const { return faults_; }
  const atpg::TestSetResult& baseline() const { return baseline_; }
  /// Shared immutable derivations (graph / SCOAP / compact model), built
  /// once at construction and aliased by every run() — and, through the
  /// serve artifact registry, by every concurrent job on this circuit.
  const CircuitArtifacts& artifacts() const { return artifacts_; }
  sim::EvalGraph::Ref graph() const { return artifacts_.graph; }

  /// Number of baseline (full-shift) test vectors — the paper's aTV.
  std::size_t atv() const { return baseline_.vectors.size(); }

  /// Runs one stitching configuration.
  StitchResult run(const StitchOptions& options) const;

  /// Runs several configurations concurrently on the process thread pool
  /// (run() is const and every configuration is independent).  Results are
  /// positionally identical to calling run() serially, for every
  /// VCOMP_THREADS value.
  std::vector<StitchResult> run_many(
      const std::vector<StitchOptions>& options) const;

 private:
  std::string name_;
  netlist::Netlist nl_;
  fault::CollapsedFaults faults_;
  CircuitArtifacts artifacts_;
  atpg::TestSetResult baseline_;
};

/// Loads the circuit a job names: `gen:<profile>` synthesizes that netgen
/// profile (at its original gate count when \p full_scale is set), a
/// `.v` / `.sv` path reads structural Verilog, any other path an ISCAS89
/// `.bench` file.  Throws std::invalid_argument when \p full_scale is set
/// for a file path.
netlist::Netlist load_circuit(const std::string& spec, bool full_scale);

/// Builds one CircuitLab per profile, concurrently (the baseline ATPG and
/// fault simulation dominate construction).  Order matches \p profiles.
std::vector<std::unique_ptr<CircuitLab>> make_labs(
    const std::vector<netgen::CircuitProfile>& profiles,
    const atpg::TestSetOptions& baseline_options = {});

/// Sets options.fixed_shift from a Table-2 info point (3/8, 5/8, 7/8).
/// Returns false — leaving options untouched — when the point is
/// unattainable for this circuit's I/O-to-chain proportions ('/').
bool apply_info_ratio(StitchOptions& options, const netlist::Netlist& nl,
                      double ratio);

}  // namespace vcomp::core
