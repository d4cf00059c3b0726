#include "vcomp/core/fault_sets.hpp"

#include <gtest/gtest.h>

namespace vcomp::core {
namespace {

using scan::FabricState;
using Bits = std::vector<std::uint8_t>;

/// Single-chain hidden state (the degenerate fabric).
FabricState one_chain(Bits bits) {
  return FabricState{std::vector<Bits>{std::move(bits)}};
}

FabricState one_chain(std::size_t length) { return one_chain(Bits(length, 0)); }

TEST(FaultSets, InitialStateAllUncaught) {
  FaultSets fs(5);
  EXPECT_EQ(fs.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(fs.state(i), FaultState::Uncaught);
  EXPECT_EQ(fs.num_caught(), 0u);
  EXPECT_EQ(fs.num_hidden(), 0u);
}

TEST(FaultSets, HiddenCarriesFabricState) {
  FaultSets fs(3);
  fs.set_hidden(1, one_chain({1, 0, 1}));
  EXPECT_EQ(fs.state(1), FaultState::Hidden);
  EXPECT_EQ(fs.hidden_state(1).bits(), (Bits{1, 0, 1}));
  EXPECT_EQ(fs.num_hidden(), 1u);
}

TEST(FaultSets, HiddenCarriesMultiChainFabric) {
  FaultSets fs(2);
  fs.set_hidden(0, FabricState{std::vector<Bits>{{1, 0}, {0, 1, 1}}});
  EXPECT_EQ(fs.hidden_state(0).num_chains(), 2u);
  EXPECT_EQ(fs.hidden_state(0).total_length(), 5u);
  const scan::ChainView chain1 = fs.hidden_state(0).chain(1);
  EXPECT_EQ(Bits(chain1.cells.begin(), chain1.cells.end()), (Bits{0, 1, 1}));
  EXPECT_EQ(fs.hidden_state(0).bits(), (Bits{1, 0, 0, 1, 1}));
}

TEST(FaultSets, CaughtIsAbsorbing) {
  FaultSets fs(3);
  fs.set_caught(0, 7);
  EXPECT_EQ(fs.state(0), FaultState::Caught);
  EXPECT_EQ(fs.catch_cycle(0), 7u);
  EXPECT_THROW(fs.set_caught(0, 8), vcomp::ContractError);
  EXPECT_THROW(fs.set_hidden(0, one_chain(3)), vcomp::ContractError);
}

TEST(FaultSets, HiddenToCaughtReleasesState) {
  FaultSets fs(2);
  fs.set_hidden(0, one_chain(4));
  fs.set_caught(0, 2);
  EXPECT_EQ(fs.num_hidden(), 0u);
  EXPECT_EQ(fs.num_caught(), 1u);
}

TEST(FaultSets, HiddenFallsBackToUncaught) {
  // The paper's f_h -> f_u transition (faulty machine re-converged).
  FaultSets fs(2);
  fs.set_hidden(1, one_chain(4));
  fs.set_uncaught(1);
  EXPECT_EQ(fs.state(1), FaultState::Uncaught);
  EXPECT_EQ(fs.num_hidden(), 0u);
  // Only hidden faults may fall back.
  EXPECT_THROW(fs.set_uncaught(0), vcomp::ContractError);
}

TEST(FaultSets, HiddenListSnapshots) {
  FaultSets fs(5);
  fs.set_hidden(1, one_chain(2));
  fs.set_hidden(3, one_chain(2));
  auto list = fs.hidden_list();
  std::sort(list.begin(), list.end());
  EXPECT_EQ(list, (std::vector<std::size_t>{1, 3}));
}

TEST(FaultSets, HiddenStateUpdatable) {
  FaultSets fs(1);
  fs.set_hidden(0, one_chain({0, 0}));
  fs.mutable_hidden_state(0) = one_chain({1, 1});
  EXPECT_EQ(fs.hidden_state(0).bits(), (Bits{1, 1}));
}

TEST(FaultSets, CatchCycleRequiresCaught) {
  FaultSets fs(1);
  EXPECT_THROW(fs.catch_cycle(0), vcomp::ContractError);
}

}  // namespace
}  // namespace vcomp::core
