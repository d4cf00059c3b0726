#include "vcomp/core/schedule_io.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>

#include "vcomp/util/assert.hpp"

namespace vcomp::core {

namespace {

std::string bits_str(const std::vector<std::uint8_t>& bits) {
  if (bits.empty()) return "-";
  std::string s;
  s.reserve(bits.size());
  for (auto b : bits) s.push_back(b ? '1' : '0');
  return s;
}

std::vector<std::uint8_t> parse_bits(const std::string& s) {
  if (s == "-") return {};
  std::vector<std::uint8_t> bits;
  bits.reserve(s.size());
  for (char c : s) {
    VCOMP_REQUIRE(c == '0' || c == '1', "bad bit character in schedule");
    bits.push_back(c == '1');
  }
  return bits;
}

/// Parses a count: one or more decimal digits whose value fits 64 bits.
std::uint64_t parse_count(const std::string& tok, const char* what) {
  VCOMP_REQUIRE(!tok.empty(), std::string("missing ") + what + " in schedule");
  std::uint64_t value = 0;
  for (char ch : tok) {
    VCOMP_REQUIRE(ch >= '0' && ch <= '9',
                  std::string("bad ") + what + " in schedule: " + tok);
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    VCOMP_REQUIRE(value <= (UINT64_MAX - digit) / 10,
                  std::string(what) + " overflows in schedule: " + tok);
    value = value * 10 + digit;
  }
  return value;
}

/// Parses the <shift> field of a vector line: a scalar shift count, or a
/// comma-separated per-chain plan whose sum is the master shift size.
void parse_shift_field(const std::string& tok, std::size_t& shift,
                       scan::ShiftPlan& plan) {
  plan.clear();
  shift = 0;
  for (std::size_t begin = 0;;) {
    const std::size_t end = tok.find(',', begin);
    const std::size_t v = parse_count(tok.substr(begin, end - begin), "shift");
    VCOMP_REQUIRE(shift <= SIZE_MAX - v, "shift plan overflows in schedule");
    shift += v;
    plan.push_back(v);
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  if (plan.size() == 1) plan.clear();  // a scalar shift count, not a plan
}

/// Reads the next whitespace-separated token of \p ls as a count.
std::uint64_t read_count(std::istringstream& ls, const char* what) {
  std::string tok;
  ls >> tok;
  return parse_count(tok, what);
}

/// Rejects anything after the last expected field of a line.
void require_line_end(std::istringstream& ls, const std::string& kw) {
  std::string extra;
  VCOMP_REQUIRE(!(ls >> extra),
                "trailing token '" + extra + "' on " + kw + " line in schedule");
}

/// Schedule-kind tokens are lower-case slugs: policy and selection names
/// joined with '+' (e.g. "ga+adi", "variable+most-faults").
bool valid_kind(const std::string& kind) {
  if (kind.empty()) return false;
  for (char c : kind)
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '+' ||
          c == '-'))
      return false;
  return true;
}

}  // namespace

void write_schedule(std::ostream& out, const StitchedSchedule& schedule) {
  VCOMP_REQUIRE(schedule.vectors.size() == schedule.shifts.size(),
                "schedule shape mismatch");
  const bool multi = schedule.num_chains > 1;
  if (multi)
    VCOMP_REQUIRE(schedule.plans.size() == schedule.vectors.size(),
                  "multi-chain schedule is missing per-chain plans");
  out << "# vcomp stitched test program\n";
  const std::size_t chain =
      schedule.vectors.empty() ? 0 : schedule.vectors[0].ppi.size();
  const std::size_t pis =
      schedule.vectors.empty() ? 0 : schedule.vectors[0].pi.size();
  out << "chain " << chain << "\n";
  if (!schedule.kind.empty()) {
    VCOMP_REQUIRE(valid_kind(schedule.kind),
                  "schedule kind must be [a-z0-9+-]: " + schedule.kind);
    out << "kind " << schedule.kind << "\n";
  }
  if (multi)
    out << "chains " << schedule.num_chains << " "
        << scan::to_string(schedule.partition) << " "
        << schedule.partition_seed << "\n";
  out << "pis " << pis << "\n";
  for (std::size_t c = 0; c < schedule.vectors.size(); ++c) {
    const auto& v = schedule.vectors[c];
    out << "vector ";
    if (multi) {
      const scan::ShiftPlan& plan = schedule.plans[c];
      VCOMP_REQUIRE(plan.size() == schedule.num_chains,
                    "plan width does not match the chain count");
      for (std::size_t k = 0; k < plan.size(); ++k)
        out << (k == 0 ? "" : ",") << plan[k];
    } else {
      out << schedule.shifts[c];
    }
    out << " " << bits_str(v.pi) << " " << bits_str(v.ppi) << "\n";
  }
  out << "observe " << schedule.terminal_observe << "\n";
  for (const auto& v : schedule.extra)
    out << "extra " << bits_str(v.pi) << " " << bits_str(v.ppi) << "\n";
}

std::string write_schedule_string(const StitchedSchedule& schedule) {
  std::ostringstream os;
  write_schedule(os, schedule);
  return os.str();
}

StitchedSchedule read_schedule(std::istream& in) {
  StitchedSchedule sched;
  std::string line;
  std::size_t chain = 0, pis = 0;
  bool have_chain = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kw;
    ls >> kw;
    if (kw == "chain") {
      chain = read_count(ls, "chain length");
      have_chain = true;
    } else if (kw == "kind") {
      ls >> sched.kind;
      VCOMP_REQUIRE(!ls.fail() && valid_kind(sched.kind),
                    "malformed kind line in schedule");
    } else if (kw == "chains") {
      std::string policy;
      sched.num_chains = read_count(ls, "chain count");
      ls >> policy;
      sched.partition_seed = read_count(ls, "partition seed");
      VCOMP_REQUIRE(sched.num_chains >= 1, "chain count must be positive");
      VCOMP_REQUIRE(scan::partition_from_string(policy, sched.partition),
                    "unknown partition policy: " + policy);
    } else if (kw == "pis") {
      pis = read_count(ls, "PI count");
    } else if (kw == "vector") {
      std::string shift_tok, pi, ppi;
      ls >> shift_tok >> pi >> ppi;
      VCOMP_REQUIRE(!ls.fail(), "malformed vector line");
      std::size_t shift = 0;
      scan::ShiftPlan plan;
      parse_shift_field(shift_tok, shift, plan);
      atpg::TestVector v;
      v.pi = parse_bits(pi);
      v.ppi = parse_bits(ppi);
      VCOMP_REQUIRE(!have_chain || v.ppi.size() == chain,
                    "scan width mismatch in schedule");
      VCOMP_REQUIRE(v.pi.size() == pis, "PI width mismatch in schedule");
      sched.vectors.push_back(std::move(v));
      sched.shifts.push_back(shift);
      if (!plan.empty()) sched.plans.push_back(std::move(plan));
    } else if (kw == "observe") {
      sched.terminal_observe = read_count(ls, "observe count");
    } else if (kw == "extra") {
      std::string pi, ppi;
      ls >> pi >> ppi;
      VCOMP_REQUIRE(!ls.fail(), "malformed extra line");
      atpg::TestVector v;
      v.pi = parse_bits(pi);
      v.ppi = parse_bits(ppi);
      sched.extra.push_back(std::move(v));
    } else {
      VCOMP_REQUIRE(false, "unknown schedule keyword: " + kw);
    }
    require_line_end(ls, kw);
  }
  VCOMP_REQUIRE(!have_chain || sched.terminal_observe <= chain,
                "observe count exceeds the chain length in schedule");
  if (sched.num_chains > 1) {
    VCOMP_REQUIRE(sched.plans.size() == sched.vectors.size(),
                  "multi-chain schedule is missing per-chain plans");
    for (const scan::ShiftPlan& plan : sched.plans)
      VCOMP_REQUIRE(plan.size() == sched.num_chains,
                    "plan width does not match the chain count");
  } else {
    VCOMP_REQUIRE(sched.plans.empty(),
                  "single-chain schedule carries per-chain plans");
  }
  return sched;
}

StitchedSchedule read_schedule_string(const std::string& text) {
  std::istringstream is(text);
  return read_schedule(is);
}

}  // namespace vcomp::core
