#include "vcomp/core/ga_schedule.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "vcomp/obs/obs.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::core {

namespace {

using Chromosome = std::vector<std::size_t>;

/// Breeding probabilities, per mille: single-point crossover per child,
/// resample per gene.
constexpr std::uint32_t kCrossoverMilli = 900;
constexpr std::uint32_t kMutationMilli = 150;

struct Fitness {
  double m = 0.0;
  double t = 0.0;
};

struct GaMetrics {
  obs::Counter generations = obs::counter("ga.generations");
  obs::Counter evals = obs::counter("ga.evals");
};

const GaMetrics& ga_metrics() {
  static const GaMetrics m;
  return m;
}

/// Total order on (fitness, genes): smaller memory ratio wins, ties fall to
/// the time ratio and then to the lexicographically smaller chromosome — so
/// the winner is unique even among fitness-equal schedules and the whole
/// search is reproducible bit for bit.
bool better(const Fitness& fa, const Chromosome& ca, const Fitness& fb,
            const Chromosome& cb) {
  if (fa.m != fb.m) return fa.m < fb.m;
  if (fa.t != fb.t) return fa.t < fb.t;
  return ca < cb;
}

/// The engine configuration one fitness evaluation runs: the chromosome as
/// the shift policy, optionally with trimmed ATPG budgets.  The quick knobs
/// only move the search ranking (a heuristic either way); reported numbers
/// come from a full-strength re-run of the winner.
StitchOptions fitness_options(const StitchOptions& base, const GaOptions& ga,
                              const Chromosome& c) {
  StitchOptions o = base;
  o.fixed_shift = 0;
  o.shift_schedule = c;
  o.schedule_label.clear();
  o.on_cycle = nullptr;  // fitness runs are internal; no progress events
  if (ga.quick_fitness) {
    o.most_faults_cubes = std::min<std::uint32_t>(o.most_faults_cubes, 4);
    o.fills_per_cube = std::min<std::uint32_t>(o.fills_per_cube, 3);
    o.max_targets_per_cycle =
        std::min<std::uint32_t>(o.max_targets_per_cycle, 24);
    o.max_targets_on_failure =
        std::min<std::uint32_t>(o.max_targets_on_failure, 96);
    o.podem.max_backtracks =
        std::min<std::uint32_t>(o.podem.max_backtracks, 48);
  }
  return o;
}

}  // namespace

GaResult evolve_schedule(const CircuitLab& lab, const StitchOptions& base,
                         const GaOptions& ga) {
  const std::size_t L = lab.netlist().num_dffs();
  VCOMP_REQUIRE(L >= 1, "GA schedule search requires a scan fabric");
  VCOMP_REQUIRE(ga.population >= 2, "GA population must be at least 2");
  VCOMP_REQUIRE(ga.genes >= 1, "chromosome must carry at least one gene");
  VCOMP_REQUIRE(ga.elite < ga.population, "elite must leave room to breed");
  VCOMP_REQUIRE(ga.tournament >= 1, "tournament size must be positive");
  const std::size_t lo = 1;  // genes range over [1, L]
  const std::size_t hi = L;

  Rng rng(ga.seed);
  // Log-uniform gene draw in pure integer arithmetic (libm rounding varies
  // across platforms; the determinism contract forbids it in the gene
  // stream): pick a bit-width uniformly, then a value within that width.
  // Small shifts — the profitable region for m — get as much probability
  // mass as large ones.
  auto draw_gene = [&]() -> std::size_t {
    const unsigned wlo = static_cast<unsigned>(std::bit_width(lo));
    const unsigned whi = static_cast<unsigned>(std::bit_width(hi));
    const unsigned w = static_cast<unsigned>(rng.range(wlo, whi));
    const std::size_t wl = std::size_t{1} << (w - 1);
    const std::size_t wh = (std::size_t{1} << w) - 1;
    const auto v = static_cast<std::size_t>(
        rng.range(static_cast<std::int64_t>(wl), static_cast<std::int64_t>(wh)));
    return std::clamp(v, lo, hi);
  };

  std::vector<Chromosome> pop(ga.population);
  for (auto& c : pop) {
    c.resize(ga.genes);
    for (auto& g : c) g = draw_gene();
  }

  GaResult res;
  std::map<Chromosome, Fitness> cache;
  auto evaluate = [&](const std::vector<Chromosome>& gen) {
    // Unique uncached chromosomes, in population order; the parallel_map
    // below delivers fitnesses in the same order, so the cache contents
    // (and everything derived from them) are thread-count invariant.
    std::vector<Chromosome> todo;
    for (const auto& c : gen)
      if (cache.find(c) == cache.end() &&
          std::find(todo.begin(), todo.end(), c) == todo.end())
        todo.push_back(c);
    const auto fits = util::parallel_map(todo.size(), [&](std::size_t i) {
      const StitchResult r = lab.run(fitness_options(base, ga, todo[i]));
      return Fitness{r.memory_ratio, r.time_ratio};
    });
    for (std::size_t i = 0; i < todo.size(); ++i)
      cache[std::move(todo[i])] = fits[i];
    res.evals += fits.size();
    ga_metrics().evals.add(fits.size());
  };
  auto fit = [&](const Chromosome& c) -> const Fitness& {
    return cache.at(c);
  };

  evaluate(pop);
  Chromosome best_c = pop[0];
  Fitness best_f = fit(best_c);
  auto note_best = [&](const std::vector<Chromosome>& gen) {
    for (const auto& c : gen)
      if (better(fit(c), c, best_f, best_c)) {
        best_f = fit(c);
        best_c = c;
      }
    res.trajectory.push_back(best_f.m);
  };
  note_best(pop);

  for (std::size_t g = 0; g < ga.generations; ++g) {
    // Breeding draws come strictly from the serial master Rng: selection,
    // crossover and mutation all happen between the evaluation barriers.
    auto pick_parent = [&]() -> const Chromosome& {
      std::size_t best = static_cast<std::size_t>(rng.below(pop.size()));
      for (std::size_t t = 1; t < ga.tournament; ++t) {
        const std::size_t i = static_cast<std::size_t>(rng.below(pop.size()));
        if (better(fit(pop[i]), pop[i], fit(pop[best]), pop[best])) best = i;
      }
      return pop[best];
    };
    std::vector<std::size_t> order(pop.size());
    for (std::size_t i = 0; i < pop.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return better(fit(pop[a]), pop[a], fit(pop[b]), pop[b]);
                     });
    std::vector<Chromosome> next;
    next.reserve(pop.size());
    for (std::size_t e = 0; e < ga.elite; ++e) next.push_back(pop[order[e]]);
    while (next.size() < pop.size()) {
      const Chromosome& pa = pick_parent();
      const Chromosome& pb = pick_parent();
      Chromosome child = pa;
      if (ga.genes >= 2 && rng.chance(kCrossoverMilli, 1000)) {
        const auto cut = static_cast<std::size_t>(
            rng.range(1, static_cast<std::int64_t>(ga.genes) - 1));
        for (std::size_t j = cut; j < ga.genes; ++j) child[j] = pb[j];
      }
      for (auto& gene : child)
        if (rng.chance(kMutationMilli, 1000)) gene = draw_gene();
      next.push_back(std::move(child));
    }
    pop = std::move(next);
    evaluate(pop);
    note_best(pop);
    ++res.generations;
    ga_metrics().generations.inc();
  }

  res.schedule = best_c;
  res.fitness_m = best_f.m;
  res.fitness_t = best_f.t;
  return res;
}

StitchOptions apply_ga_schedule(const StitchOptions& base,
                                const GaResult& result) {
  VCOMP_REQUIRE(!result.schedule.empty(), "GA result carries no schedule");
  StitchOptions o = base;
  o.fixed_shift = 0;
  o.shift_schedule = result.schedule;
  o.schedule_label = "ga+" + to_string(o.selection);
  return o;
}

}  // namespace vcomp::core
