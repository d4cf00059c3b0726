#include "vcomp/atpg/test_set.hpp"

#include <algorithm>
#include <bit>

#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/tmeas/scoap.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::atpg {

using fault::DiffSim;
using fault::DiffSimShards;
using fault::Fault;
using sim::Word;

namespace {

/// Random-phase cap: at most this many 64-pattern blocks.
constexpr std::size_t kMaxRandomBlocks = 64;

}  // namespace

void load_vector(DiffSim& sim, const TestVector& v) {
  const netlist::Netlist& nl = sim.graph()->netlist();
  for (std::size_t i = 0; i < nl.num_inputs(); ++i)
    sim.good().set_input(i, v.pi[i] ? ~Word{0} : Word{0});
  for (std::size_t i = 0; i < nl.num_dffs(); ++i)
    sim.good().set_state(i, v.ppi[i] ? ~Word{0} : Word{0});
}

Word load_lanes(DiffSim& sim, std::span<const TestVector> vectors,
                std::size_t base) {
  VCOMP_REQUIRE(base < vectors.size(), "load_lanes needs a vector to load");
  const auto block =
      vectors.subspan(base, std::min<std::size_t>(64, vectors.size() - base));
  const netlist::Netlist& nl = sim.graph()->netlist();
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    Word w = 0;
    for (std::size_t k = 0; k < block.size(); ++k)
      w |= Word{block[k].pi[i] != 0} << k;
    sim.good().set_input(i, w);
  }
  for (std::size_t i = 0; i < nl.num_dffs(); ++i) {
    Word w = 0;
    for (std::size_t k = 0; k < block.size(); ++k)
      w |= Word{block[k].ppi[i] != 0} << k;
    sim.good().set_state(i, w);
  }
  return block.size() == 64 ? ~Word{0} : (Word{1} << block.size()) - 1;
}

std::vector<std::size_t> first_detections(DiffSimShards& sims,
                                          const std::vector<Fault>& faults,
                                          std::span<const std::size_t> targets,
                                          std::span<const TestVector> vectors) {
  std::vector<std::size_t> first(targets.size(), kUndetected);
  std::size_t undetected = targets.size();
  for (std::size_t base = 0; base < vectors.size() && undetected > 0;
       base += 64) {
    // Each shard writes only its own targets' entries.
    util::parallel_for_shards(
        targets.size(), sims.max_shards(),
        [&](std::size_t shard, std::size_t b, std::size_t e) {
          DiffSim& s = sims.at(shard);
          const Word lanes = load_lanes(s, vectors, base);
          s.commit_good();
          for (std::size_t k = b; k < e; ++k) {
            if (first[k] != kUndetected) continue;
            const Word hit = s.simulate(faults[targets[k]]).any() & lanes;
            if (hit != 0)
              first[k] =
                  base + static_cast<std::size_t>(std::countr_zero(hit));
          }
        });
    undetected = static_cast<std::size_t>(
        std::count(first.begin(), first.end(), kUndetected));
  }
  return first;
}

TestSetResult generate_full_scan_tests(const netlist::Netlist& nl,
                                       const std::vector<Fault>& faults,
                                       const TestSetOptions& options) {
  TestSetResult result;
  result.classes.assign(faults.size(), FaultClass::Aborted);

  // Per-fault simulation dominates this function and every fault is
  // independent, so the bulk scans below are sharded over the thread pool
  // with one private DiffSim per shard.  All merges are index-ordered (or
  // write disjoint flags), so the result is bit-identical to the serial
  // run for any VCOMP_THREADS.  One compiled graph backs every shard and
  // the deterministic-phase engines below.
  const auto eg = sim::EvalGraph::compile(nl);
  DiffSimShards sims(eg);
  Rng rng(options.seed);
  std::vector<std::uint8_t> detected(faults.size(), 0);

  const std::size_t npi = nl.num_inputs();
  const std::size_t nff = nl.num_dffs();

  // ---- Random phase with fault dropping -------------------------------
  std::size_t idle = 0;
  std::vector<Word> pi_words(npi), ppi_words(nff);
  std::vector<Word> det_all(faults.size(), 0);
  for (std::size_t block = 0;
       options.random_idle_blocks > 0 && block < kMaxRandomBlocks &&
       idle < options.random_idle_blocks;
       ++block) {
    // Stimulus words are drawn serially (one RNG stream, unchanged from the
    // serial flow); only the per-fault detection scan fans out.
    for (std::size_t i = 0; i < npi; ++i) pi_words[i] = rng.next();
    for (std::size_t i = 0; i < nff; ++i) ppi_words[i] = rng.next();

    util::parallel_for_shards(
        faults.size(), sims.max_shards(),
        [&](std::size_t shard, std::size_t b, std::size_t e) {
          DiffSim& s = sims.at(shard);
          for (std::size_t i = 0; i < npi; ++i)
            s.good().set_input(i, pi_words[i]);
          for (std::size_t i = 0; i < nff; ++i)
            s.good().set_state(i, ppi_words[i]);
          s.commit_good();
          for (std::size_t fi = b; fi < e; ++fi)
            det_all[fi] = detected[fi] ? 0 : s.simulate(faults[fi]).any();
        });

    // Greedy set cover within the block: keep the fewest patterns that
    // still detect every detectable fault (ATALANTA-grade compactness is
    // what makes aTV a fair baseline).  Consuming det_all in index order
    // reproduces the serial candidate ordering exactly.
    std::vector<Word> det_words;
    std::vector<std::size_t> det_faults;
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (detected[fi] || det_all[fi] == 0) continue;
      det_words.push_back(det_all[fi]);
      det_faults.push_back(fi);
    }
    Word used = 0;
    const bool any_new = !det_words.empty();
    while (!det_words.empty()) {
      std::uint32_t count[64] = {};
      for (Word w : det_words)
        for (Word bits = w; bits != 0; bits &= bits - 1)
          ++count[std::countr_zero(bits)];
      int best = 0;
      for (int k = 1; k < 64; ++k)
        if (count[k] > count[best]) best = k;
      used |= Word{1} << best;
      std::size_t out = 0;
      for (std::size_t i = 0; i < det_words.size(); ++i) {
        if ((det_words[i] >> best) & 1) {
          detected[det_faults[i]] = 1;
        } else {
          det_words[out] = det_words[i];
          det_faults[out] = det_faults[i];
          ++out;
        }
      }
      det_words.resize(out);
      det_faults.resize(out);
    }
    idle = any_new ? 0 : idle + 1;

    for (int k = 0; k < 64; ++k) {
      if (!((used >> k) & 1)) continue;
      TestVector v;
      v.pi.resize(npi);
      v.ppi.resize(nff);
      for (std::size_t i = 0; i < npi; ++i) v.pi[i] = (pi_words[i] >> k) & 1;
      for (std::size_t i = 0; i < nff; ++i) v.ppi[i] = (ppi_words[i] >> k) & 1;
      result.vectors.push_back(std::move(v));
    }
  }

  // ---- Deterministic phase --------------------------------------------
  tmeas::Scoap scoap(*eg);
  Podem podem(eg, scoap);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (detected[fi]) continue;
    const auto res = podem.generate(faults[fi], nullptr, options.podem);
    if (res.status == PodemStatus::Untestable) {
      result.classes[fi] = FaultClass::Redundant;
      continue;
    }
    if (res.status == PodemStatus::Aborted) continue;

    TestVector v = fill_cube(res.cube, FillMode::Random, rng);
    // Fault-dropping simulation of the new vector, sharded over the
    // remaining faults.  Shards write disjoint detected[] entries, so the
    // flags after the scan equal the serial ones.
    const std::size_t base = fi;
    util::parallel_for_shards(
        faults.size() - base, sims.max_shards(),
        [&](std::size_t shard, std::size_t b, std::size_t e) {
          DiffSim& s = sims.at(shard);
          load_vector(s, v);
          s.commit_good();
          for (std::size_t off = b; off < e; ++off) {
            const std::size_t fj = base + off;
            if (detected[fj]) continue;
            if (result.classes[fj] == FaultClass::Redundant) continue;
            if (s.simulate(faults[fj]).any() != 0) detected[fj] = 1;
          }
        });
    VCOMP_ENSURE(detected[fi], "PODEM vector failed to detect its target");
    result.vectors.push_back(std::move(v));
  }

  // ---- Reverse-order static compaction --------------------------------
  // Walking the list backwards, a vector survives iff it detects a fault no
  // later vector detects: on the reversed list, iff it is some detected
  // fault's first detector.
  if (options.reverse_compaction && !result.vectors.empty()) {
    std::vector<std::size_t> targets;
    for (std::size_t fi = 0; fi < faults.size(); ++fi)
      if (detected[fi]) targets.push_back(fi);
    std::reverse(result.vectors.begin(), result.vectors.end());
    const auto first =
        first_detections(sims, faults, targets, result.vectors);
    std::vector<std::uint8_t> keep(result.vectors.size(), 0);
    for (std::size_t k : first) {
      // Compaction must not lose coverage.
      VCOMP_ENSURE(k != kUndetected, "compaction lost fault coverage");
      keep[k] = 1;
    }
    std::vector<TestVector> kept;
    for (std::size_t k = result.vectors.size(); k-- > 0;)
      if (keep[k]) kept.push_back(std::move(result.vectors[k]));
    result.vectors = std::move(kept);
  }

  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (detected[fi]) {
      result.classes[fi] = FaultClass::Detected;
      ++result.num_detected;
    } else if (result.classes[fi] == FaultClass::Redundant) {
      ++result.num_redundant;
    } else {
      ++result.num_aborted;
    }
  }
  return result;
}

}  // namespace vcomp::atpg
