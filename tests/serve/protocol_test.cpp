#include "vcomp/serve/protocol.hpp"

#include <gtest/gtest.h>

namespace vcomp::serve {
namespace {

TEST(Protocol, ParsesControlOps) {
  std::string err;
  EXPECT_EQ(parse_request(R"({"op":"ping"})", err)->op, Request::Op::Ping);
  EXPECT_EQ(parse_request(R"({"op":"status"})", err)->op,
            Request::Op::Status);
  EXPECT_EQ(parse_request(R"({"op":"shutdown"})", err)->op,
            Request::Op::Shutdown);
}

TEST(Protocol, ParsesSubmitWithFullConfig) {
  std::string err;
  const auto req = parse_request(
      R"({"op":"submit","id":"j7","circuit":"gen:s444","config":{)"
      R"("chains":4,"partition":"contiguous","partition_seed":9,)"
      R"("shift":12,"selection":"hardness","atpg":"race",)"
      R"("capture":"vxor","hxor":3,"seed":5,"max_cycles":100,)"
      R"("full_scale":true,"progress_every":8}})",
      err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->op, Request::Op::Submit);
  const JobSpec& j = req->job;
  EXPECT_EQ(j.id, "j7");
  EXPECT_EQ(j.circuit, "gen:s444");
  EXPECT_TRUE(j.full_scale);
  EXPECT_EQ(j.progress_every, 8u);
  EXPECT_EQ(j.options.num_chains, 4u);
  EXPECT_EQ(j.options.partition, scan::PartitionPolicy::Contiguous);
  EXPECT_EQ(j.options.partition_seed, 9u);
  EXPECT_EQ(j.options.fixed_shift, 12u);
  EXPECT_EQ(j.options.selection, core::SelectionPolicy::Hardness);
  EXPECT_EQ(j.options.atpg_engine, atpg::EngineKind::Race);
  EXPECT_EQ(j.options.capture, scan::CaptureMode::VXor);
  EXPECT_EQ(j.options.hxor_taps, 3u);
  EXPECT_EQ(j.options.seed, 5u);
  EXPECT_EQ(j.options.max_cycles, 100u);
}

TEST(Protocol, RejectsBadRequests) {
  std::string err;
  EXPECT_FALSE(parse_request("not json", err).has_value());
  EXPECT_FALSE(parse_request(R"([1,2])", err).has_value());
  EXPECT_FALSE(parse_request(R"({"op":"frob"})", err).has_value());
  // submit without id / circuit
  EXPECT_FALSE(parse_request(R"({"op":"submit"})", err).has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"submit","id":"a"})", err).has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"submit","id":"","circuit":"x"})", err)
          .has_value());
}

TEST(Protocol, RejectsUnknownConfigKeyAndBadValues) {
  std::string err;
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"a","circuit":"x",)"
                             R"("config":{"chians":4}})",
                             err)
                   .has_value());
  EXPECT_NE(err.find("chians"), std::string::npos);  // typo echoed back
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"a","circuit":"x",)"
                             R"("config":{"chains":0}})",
                             err)
                   .has_value());
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"a","circuit":"x",)"
                             R"("config":{"seed":-1}})",
                             err)
                   .has_value());
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"a","circuit":"x",)"
                             R"("config":{"info":1.5}})",
                             err)
                   .has_value());
  EXPECT_FALSE(parse_request(R"({"op":"submit","id":"a","circuit":"x",)"
                             R"("config":{"selection":"best"}})",
                             err)
                   .has_value());
}

// The exact messages vcomp_stitch also prints for the same bad flags
// (tests/cli pins the CLI side): both front doors share apply_config.
TEST(Protocol, BadConfigValueMessages) {
  auto error_for = [](const char* config) {
    std::string err;
    EXPECT_FALSE(parse_request(std::string(R"({"op":"submit","id":"a",)") +
                                   R"("circuit":"x","config":)" + config +
                                   "}",
                               err)
                     .has_value())
        << config;
    return err;
  };
  EXPECT_EQ(error_for(R"({"chains":"abc"})"),
            "chains must be a positive integer");
  EXPECT_EQ(error_for(R"({"chains":0})"), "chains must be a positive integer");
  EXPECT_EQ(error_for(R"({"info":3})"), "info must be a number in (0,1]");
  EXPECT_EQ(error_for(R"({"partition":"snake"})"),
            "partition must be round-robin | contiguous | random");
  EXPECT_EQ(error_for(R"({"atpg":"auto"})"), "atpg must be podem | sat | race");
}

TEST(Protocol, CircuitLabel) {
  EXPECT_EQ(circuit_label("gen:s444", false), "gen:s444");
  EXPECT_EQ(circuit_label("gen:s38417", true), "gen:s38417#full");
}

TEST(Protocol, ResultRowIsCanonical) {
  core::StitchResult r;
  r.vectors_applied = 10;
  r.extra_full_vectors = 2;
  r.baseline_vectors = 8;
  r.time_ratio = 0.5;
  r.memory_ratio = 0.25;
  r.cost.shift_cycles = 100;
  r.cost.stim_bits = 60;
  r.cost.resp_bits = 40;
  r.targets = 99;
  r.caught_stitched = 90;
  r.caught_flush = 5;
  r.caught_extra = 4;
  r.hidden_peak = 7;
  obs::CounterSet cs;
  cs.values.emplace_back("a.zero", 0);  // must be filtered out
  cs.values.emplace_back("b.one", 1);
  const std::string row = result_row("gen:x", r, cs);
  EXPECT_EQ(row,
            "{\"circuit\":\"gen:x\",\"tv\":10,\"ex\":2,\"atv\":8,"
            "\"t\":0.500000,\"m\":0.250000,\"shift_cycles\":100,"
            "\"memory_bits\":100,\"targets\":99,\"caught_stitched\":90,"
            "\"caught_flush\":5,\"caught_extra\":4,\"uncovered\":0,"
            "\"hidden_peak\":7,\"counters\":{\"b.one\":1}}");
  // The row is itself valid single-line JSON.
  EXPECT_TRUE(Json::parse(row).has_value());
  EXPECT_EQ(row.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace vcomp::serve
