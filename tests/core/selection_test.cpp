#include "vcomp/core/selection.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "vcomp/core/experiment.hpp"
#include "vcomp/fault/collapse.hpp"
#include "vcomp/netgen/netgen.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::core {
namespace {

TEST(Selection, Names) {
  EXPECT_EQ(to_string(SelectionPolicy::Random), "random");
  EXPECT_EQ(to_string(SelectionPolicy::Hardness), "hardness");
  EXPECT_EQ(to_string(SelectionPolicy::MostFaults), "most-faults");
  EXPECT_EQ(to_string(SelectionPolicy::Adi), "adi");
}

class SelectionOrder : public ::testing::TestWithParam<SelectionPolicy> {};

TEST_P(SelectionOrder, IsAPermutation) {
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  Rng rng(3);
  const auto order =
      target_order(GetParam(), nl, cf.faults(), {64, 5}, rng);
  ASSERT_EQ(order.size(), cf.size());
  std::vector<std::uint8_t> seen(cf.size(), 0);
  for (auto i : order) {
    ASSERT_LT(i, cf.size());
    ASSERT_FALSE(seen[i]);
    seen[i] = 1;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SelectionOrder,
                         ::testing::Values(SelectionPolicy::Random,
                                           SelectionPolicy::Hardness,
                                           SelectionPolicy::MostFaults));

TEST(Selection, RandomOrderDependsOnSeed) {
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  Rng a(1), b(2);
  const auto oa = target_order(SelectionPolicy::Random, nl, cf.faults(),
                               {64, 5}, a);
  const auto ob = target_order(SelectionPolicy::Random, nl, cf.faults(),
                               {64, 5}, b);
  EXPECT_NE(oa, ob);
}

TEST(Selection, MostFaultsOrderIsNatural) {
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  Rng rng(1);
  const auto order = target_order(SelectionPolicy::MostFaults, nl,
                                  cf.faults(), {64, 5}, rng);
  std::vector<std::size_t> natural(cf.size());
  std::iota(natural.begin(), natural.end(), std::size_t{0});
  EXPECT_EQ(order, natural);
}

TEST(Selection, AdiOrderAscendingPermutation) {
  CircuitLab lab(netgen::profile("s444"));
  const auto& faults = lab.faults().faults();
  const auto counts = adi_counts(sim::EvalGraph::compile(lab.netlist()),
                                 faults, lab.baseline().vectors);
  ASSERT_EQ(counts.size(), faults.size());
  std::size_t ties = 0;
  const auto order = adi_order(counts, &ties);
  ASSERT_EQ(order.size(), faults.size());
  std::vector<std::uint8_t> seen(faults.size(), 0);
  for (std::size_t k = 0; k < order.size(); ++k) {
    ASSERT_LT(order[k], faults.size());
    ASSERT_FALSE(seen[order[k]]);
    seen[order[k]] = 1;
    if (k > 0) {  // ascending ADI: rarely-detected faults first
      EXPECT_LE(counts[order[k - 1]], counts[order[k]]);
    }
  }
}

TEST(Selection, AdiOrderStableOnTies) {
  // Equal counts keep fault-list order (stable sort), so reruns agree.
  std::size_t ties = 0;
  const auto order = adi_order({3, 1, 3, 0, 1}, &ties);
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 1, 4, 0, 2}));
  EXPECT_EQ(ties, 2u);  // (1,4) and (0,2)
}

TEST(Selection, AdiRequiresBaselineVectors) {
  auto nl = netgen::generate("s444");
  auto cf = fault::collapsed_fault_list(nl);
  Rng rng(1);
  EXPECT_THROW(
      target_order(SelectionPolicy::Adi, nl, cf.faults(), {64, 5}, rng),
      vcomp::ContractError);
}

TEST(Selection, AdiTargetOrderMatchesAdiOrder) {
  CircuitLab lab(netgen::profile("s444"));
  const auto& faults = lab.faults().faults();
  Rng rng(1);  // unused by the ADI policy
  const auto via_target =
      target_order(SelectionPolicy::Adi, lab.netlist(), faults, {64, 5}, rng,
                   &lab.baseline().vectors);
  const auto direct = adi_order(adi_counts(
      sim::EvalGraph::compile(lab.netlist()), faults,
      lab.baseline().vectors));
  EXPECT_EQ(via_target, direct);
}

TEST(Selection, HardnessOrderStableAcrossCalls) {
  auto nl = netgen::generate("s526");
  auto cf = fault::collapsed_fault_list(nl);
  Rng a(1), b(9);  // rng is unused by the hardness policy
  EXPECT_EQ(target_order(SelectionPolicy::Hardness, nl, cf.faults(),
                         {64, 5}, a),
            target_order(SelectionPolicy::Hardness, nl, cf.faults(),
                         {64, 5}, b));
}

}  // namespace
}  // namespace vcomp::core
