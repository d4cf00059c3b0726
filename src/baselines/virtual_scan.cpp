#include "vcomp/baselines/virtual_scan.hpp"

#include "vcomp/atpg/podem.hpp"
#include "vcomp/atpg/test_set.hpp"
#include "vcomp/fault/fault_sim.hpp"
#include "vcomp/scan/fabric.hpp"
#include "vcomp/scan/lfsr.hpp"
#include "vcomp/tmeas/scoap.hpp"
#include "vcomp/util/assert.hpp"
#include "vcomp/util/rng.hpp"

namespace vcomp::baselines {

using fault::DiffSim;
using sim::Trit;
using sim::Word;

VirtualScanResult run_virtual_scan(const netlist::Netlist& nl,
                                   const fault::CollapsedFaults& faults,
                                   const atpg::TestSetResult& baseline,
                                   const VirtualScanOptions& options) {
  VCOMP_REQUIRE(options.partitions >= 2,
                "virtual scan needs at least 2 partitions");
  const std::size_t L = nl.num_dffs();
  const std::size_t npi = nl.num_inputs();
  const std::size_t npo = nl.num_outputs();
  const std::size_t k = options.partitions;
  const std::size_t lp = (L + k - 1) / k;
  const std::size_t lfsr_len =
      options.lfsr_length == 0 ? lp : options.lfsr_length;
  const std::size_t seed_chain = (k - 1) * lfsr_len;

  VirtualScanResult res;
  res.scheme = "VSC(k=" + std::to_string(k) + ")";
  res.full_cost = scan::CostMeter::full_scan(npi, npo, L,
                                             baseline.vectors.size());
  res.needs_output_compactor = true;  // MISR on the outputs

  // The k partitions are the chains of one scan fabric with explicit
  // ceil-span orders: partition j covers chain positions
  // [j·lp, min((j+1)·lp, L)).  Partition 0 is tester-fed, the rest are
  // LFSR-filled (chain-j cell i receives LFSR output lp_j - 1 - i,
  // matching shift order).
  VCOMP_REQUIRE((k - 1) * lp < L,
                "virtual scan partition count too large for the chain");
  std::vector<std::vector<std::uint32_t>> spans(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t lo = j * lp;
    const std::size_t hi = std::min(L, lo + lp);
    for (std::size_t p = lo; p < hi; ++p)
      spans[j].push_back(static_cast<std::uint32_t>(p));
  }
  const scan::Fabric fabric(nl, std::move(spans));

  std::vector<std::uint8_t> remaining(faults.size(), 0);
  std::size_t remaining_count = 0;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (baseline.classes[i] == atpg::FaultClass::Detected) {
      remaining[i] = 1;
      ++remaining_count;
    }

  // One compiled evaluation graph serves ATPG and fault dropping alike.
  const auto eg = sim::EvalGraph::compile(nl);
  tmeas::Scoap scoap(*eg);
  atpg::Podem podem(eg, scoap);
  fault::DiffSimShards sims(eg);
  DiffSim& sim = sims.at(0);
  Rng rng(options.seed);
  const scan::Lfsr proto = scan::Lfsr::standard(lfsr_len);

  for (std::size_t fi = 0; fi < faults.size() && remaining_count > 0; ++fi) {
    if (!remaining[fi]) continue;
    const auto gen = podem.generate(faults[fi], nullptr, options.podem);
    if (gen.status != atpg::PodemStatus::Success) continue;  // serial phase

    // Encode: one GF(2) system per LFSR partition.
    bool encodable = true;
    std::vector<std::vector<std::uint8_t>> seeds(k);
    for (std::size_t j = 1; j < k && encodable; ++j) {
      const std::size_t plen = fabric.chain_length(j);
      Gf2Solver solver(lfsr_len);
      for (std::size_t i = 0; i < plen; ++i) {
        const Trit t = gen.cube.ppi[fabric.dff_at(j, i)];
        if (t == Trit::X) continue;
        const auto row = proto.symbolic_output_row(plen - 1 - i);
        if (!solver.add_equation(row, t == Trit::One)) {
          encodable = false;
          break;
        }
      }
      if (encodable) {
        const auto x = solver.solve();
        seeds[j].resize(lfsr_len);
        for (std::size_t b = 0; b < lfsr_len; ++b) seeds[j][b] = x.get(b);
      }
    }
    if (!encodable) {
      ++res.unencodable;
      continue;
    }

    // Build the concrete vector: direct partition + LFSR streams.
    atpg::TestVector v;
    v.pi.resize(npi);
    for (std::size_t i = 0; i < npi; ++i) {
      const Trit t = gen.cube.pi[i];
      v.pi[i] = t == Trit::X ? rng.bit() : (t == Trit::One);
    }
    v.ppi.resize(L);
    for (std::size_t i = 0; i < fabric.chain_length(0); ++i) {
      const auto dff = fabric.dff_at(0, i);
      const Trit t = gen.cube.ppi[dff];
      v.ppi[dff] = t == Trit::X ? rng.bit() : (t == Trit::One);
    }
    for (std::size_t j = 1; j < k; ++j) {
      const std::size_t plen = fabric.chain_length(j);
      scan::Lfsr lfsr = proto;
      lfsr.seed(seeds[j]);
      const auto stream = lfsr.stream(plen);
      for (std::size_t i = 0; i < plen; ++i)
        v.ppi[fabric.dff_at(j, i)] = stream[plen - 1 - i];
      // Cross-check: the stream must honour the cube.
      for (std::size_t i = 0; i < plen; ++i) {
        const Trit t = gen.cube.ppi[fabric.dff_at(j, i)];
        if (t != Trit::X)
          VCOMP_ENSURE(v.ppi[fabric.dff_at(j, i)] == (t == Trit::One),
                       "LFSR seed failed to reproduce the cube");
      }
    }
    ++res.encodable;
    ++res.cheap_vectors;

    // Fault-drop with the concrete vector (full observation; the MISR's
    // tiny aliasing probability is neglected, its hardware is not).
    atpg::load_vector(sim, v);
    sim.commit_good();
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (!remaining[i]) continue;
      if (sim.simulate(faults[i]).any() != 0) {
        remaining[i] = 0;
        --remaining_count;
      }
    }
  }

  // Compressed-mode cost.
  if (res.cheap_vectors > 0) {
    res.cost.shift_cycles += (res.cheap_vectors + 1) * (seed_chain + lp);
    res.cost.stim_bits += res.cheap_vectors * (npi + seed_chain + lp);
    res.cost.resp_bits +=
        res.cheap_vectors * (npo + options.signature_bits);
  }

  // Serial phase for the leftovers, from the aTV pool.
  finish_serial(nl, faults, baseline, remaining, sims, res);
  return res;
}

}  // namespace vcomp::baselines
