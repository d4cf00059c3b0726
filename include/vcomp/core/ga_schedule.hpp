#pragma once

/// \file ga_schedule.hpp
/// Evolutionary search over per-cycle variable shift schedules.
///
/// The paper fixes the shift size (3/8 .. 7/8 of the chain) or uses the
/// simple escalate-on-failure `var` rule; Polian, Czutro & Becker's line of
/// work applies evolutionary search to exactly this kind of code-based
/// compression knob.  Here a chromosome is a short cyclic vector of master
/// shift sizes (one per stitched cycle, wrapped by the ScheduleShift
/// playback policy), fitness is the memory ratio `m` (ties broken by the
/// time ratio `t`, then lexicographically by genes) of a quick-mode
/// StitchEngine run, and each generation's population is evaluated
/// concurrently on the process thread pool.  Genes are master shift sizes
/// in [1, L] (L = the fabric's total cell count), drawn log-uniformly so
/// small shifts (the profitable region) are as likely as large ones;
/// children take a single-point crossover with probability 0.9 and
/// resample each gene with probability 0.15.
///
/// Determinism contract: every random draw (initial population, tournament
/// picks, crossover cuts, mutations) comes from one util::Rng consumed
/// serially between the parallel evaluation barriers, and util::parallel_map
/// delivers results in population order — so the winning chromosome, its
/// fitness and the whole per-generation trajectory are byte-identical for
/// every VCOMP_THREADS value and every shard split.  Repeated chromosomes
/// hit a fitness cache instead of re-running the engine; `ga.evals` counts
/// real engine runs only.

#include <cstdint>
#include <vector>

#include "vcomp/core/experiment.hpp"

namespace vcomp::core {

struct GaOptions {
  std::size_t population = 12;    ///< chromosomes per generation
  std::size_t generations = 8;    ///< breeding rounds after the initial one
  std::size_t genes = 10;         ///< chromosome length (cyclic schedule)
  std::size_t elite = 2;          ///< best chromosomes copied unchanged
  std::size_t tournament = 3;     ///< tournament size for parent selection
  std::uint64_t seed = 1;
  /// Evaluate fitness with reduced ATPG budgets (fewer cubes, fills and
  /// backtracks).  The search ranking is a heuristic either way; callers
  /// re-run the winner at full strength for reported numbers.
  bool quick_fitness = true;
};

struct GaResult {
  std::vector<std::size_t> schedule;  ///< winning chromosome (master shifts)
  double fitness_m = 0.0;             ///< winner's quick-mode memory ratio
  double fitness_t = 0.0;             ///< winner's quick-mode time ratio
  /// Best `m` seen up to and including each generation (length =
  /// generations + 1: the initial population is entry 0).
  std::vector<double> trajectory;
  std::size_t generations = 0;        ///< breeding rounds actually run
  std::size_t evals = 0;              ///< real (non-cached) engine runs
};

/// Evolves a shift schedule for \p lab under \p base (whose fixed_shift /
/// shift_schedule fields are ignored — the chromosome supplies the policy;
/// every other knob, including the selection policy, is inherited by each
/// fitness run).  Bumps obs counters `ga.generations` and `ga.evals`.
GaResult evolve_schedule(const CircuitLab& lab, const StitchOptions& base,
                         const GaOptions& ga = {});

/// The StitchOptions a caller should use to apply a GA winner at full
/// strength: \p base with the winning schedule installed and the
/// schedule-kind label stamped "ga+<selection>".
StitchOptions apply_ga_schedule(const StitchOptions& base,
                                const GaResult& result);

}  // namespace vcomp::core
