#include "vcomp/atpg/engine.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "vcomp/atpg/sat_engine.hpp"
#include "vcomp/util/assert.hpp"

namespace vcomp::atpg {

bool engine_kind_from_string(std::string_view s, EngineKind& out) {
  if (s == "podem") {
    out = EngineKind::Podem;
  } else if (s == "sat") {
    out = EngineKind::Sat;
  } else if (s == "race") {
    out = EngineKind::Race;
  } else if (s == "auto") {
    out = EngineKind::Auto;
  } else {
    return false;
  }
  return true;
}

EngineKind engine_kind_from_env(const char* value) {
  if (value == nullptr || *value == '\0') return EngineKind::Podem;
  EngineKind kind;
  if (!engine_kind_from_string(value, kind) || kind == EngineKind::Auto)
    throw std::runtime_error(
        "VCOMP_ATPG must be podem, sat or race (got \"" +
        std::string(value) + "\")");
  return kind;
}

EngineKind resolve_engine_kind(EngineKind kind) {
  return kind == EngineKind::Auto
             ? engine_kind_from_env(std::getenv("VCOMP_ATPG"))
             : kind;
}

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::Auto:
      return "auto";
    case EngineKind::Podem:
      return "podem";
    case EngineKind::Sat:
      return "sat";
    case EngineKind::Race:
      return "race";
  }
  return "?";
}

namespace {

/// The classical generator behind the portfolio interface.
class PodemEngine final : public Engine {
 public:
  PodemEngine(sim::EvalGraph::Ref graph, const tmeas::Scoap& scoap,
              const PodemOptions& options)
      : podem_(std::move(graph), scoap), opts_(options) {}

  GenResult generate(const fault::Fault& f,
                     const PpiConstraints* constraints) override {
    PodemResult r = podem_.generate(f, constraints, opts_);
    GenResult res;
    res.status = r.status;
    res.cube = std::move(r.cube);
    res.backtracks = r.backtracks;
    return res;
  }
  std::string_view name() const override { return "podem"; }

 private:
  Podem podem_;
  PodemOptions opts_;
};

/// PODEM first, SAT only on Aborted.  The route is a pure function of the
/// (fault, constraints) query — PODEM's abort is deterministic under its
/// backtrack budget — so results are byte-identical at every thread count.
class RaceEngine final : public Engine {
 public:
  RaceEngine(sim::EvalGraph::Ref graph, const tmeas::Scoap& scoap,
             const EngineOptions& options)
      : podem_(graph, scoap), popts_(options.podem), sat_(graph, options.sat) {}

  GenResult generate(const fault::Fault& f,
                     const PpiConstraints* constraints) override {
    PodemResult r = podem_.generate(f, constraints, popts_);
    if (r.status != PodemStatus::Aborted) {
      GenResult res;
      res.status = r.status;
      res.cube = std::move(r.cube);
      res.backtracks = r.backtracks;
      return res;
    }
    GenResult res = sat_.generate(f, constraints);
    res.backtracks += r.backtracks;
    return res;
  }
  std::string_view name() const override { return "race"; }

 private:
  Podem podem_;
  PodemOptions popts_;
  SatEngine sat_;
};

}  // namespace

std::unique_ptr<Engine> make_engine(EngineKind kind, sim::EvalGraph::Ref graph,
                                    const tmeas::Scoap& scoap,
                                    const EngineOptions& options) {
  switch (kind) {
    case EngineKind::Podem:
      return std::make_unique<PodemEngine>(std::move(graph), scoap,
                                           options.podem);
    case EngineKind::Sat:
      return std::make_unique<SatEngine>(std::move(graph), options.sat);
    case EngineKind::Race:
      return std::make_unique<RaceEngine>(std::move(graph), scoap, options);
    case EngineKind::Auto:
      break;
  }
  VCOMP_REQUIRE(false, "make_engine: resolve EngineKind::Auto first");
  return nullptr;
}

}  // namespace vcomp::atpg
