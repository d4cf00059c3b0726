#pragma once

/// \file protocol.hpp
/// The serve daemon's NDJSON wire protocol.
///
/// Requests (one JSON object per line):
///
///   {"op":"submit","id":"j1","circuit":"gen:c432","config":{...}}
///   {"op":"status"}
///   {"op":"ping"}
///   {"op":"shutdown"}
///
/// `config` mirrors the vcomp_stitch flags key for key (see DESIGN.md §11
/// for the full grammar): chains, partition, partition_seed, shift, info,
/// selection, atpg, capture, hxor, seed, max_cycles, full_scale,
/// progress_every.  Unknown keys are rejected — a typo must not silently
/// run the default configuration.
///
/// Events emitted by the daemon (one per line):
///
///   {"event":"accepted","id":"j1"}
///   {"event":"progress","id":"j1","cycle":N,"caught_shift":N,
///    "caught_po":N,"hidden":N}
///   {"event":"result","id":"j1","row":{...}}        (see result_row)
///   {"event":"error","id":"j1","message":"..."}
///   {"event":"status",...}   {"event":"pong"}   {"event":"bye"}
///
/// result_row() is the canonical single-line Table-2-style row, shared
/// byte for byte with `vcomp_stitch --row`: the serve determinism
/// contract literally diffs daemon rows against CLI rows.

#include <optional>
#include <string>

#include "vcomp/core/stitch_engine.hpp"
#include "vcomp/obs/metrics.hpp"
#include "vcomp/serve/json.hpp"

namespace vcomp::serve {

/// One stitching job as submitted over the wire.
struct JobSpec {
  std::string id;            ///< client-chosen job id (echoed in events)
  std::string circuit;       ///< gen:<profile> or a netlist file path
  bool full_scale = false;   ///< lift the netgen gate budget (gen: only)
  double info = 0.0;         ///< >0: fixed shift at this Table-2 info point
  std::size_t progress_every = 0;  ///< emit progress every N cycles (0=off)
  core::StitchOptions options;     ///< on_cycle left empty; server fills it
};

struct Request {
  enum class Op { Submit, Status, Ping, Shutdown };
  Op op = Op::Ping;
  JobSpec job;  ///< valid when op == Submit
};

/// Parses one request line.  On failure returns nullopt and sets \p error
/// to a human-readable reason (echoed back in an error event).
std::optional<Request> parse_request(const std::string& line,
                                     std::string& error);

/// Applies one config object onto \p spec (the key-for-key mirror of the
/// vcomp_stitch flags).  Returns false + \p error on unknown keys or bad
/// values.  The one validator of job options: vcomp_stitch routes its job
/// flags through it too, so both front doors send the same messages.
bool apply_config(const Json& config, JobSpec& spec, std::string& error);

/// Display label of a job's circuit: the spec itself, with "#full"
/// appended when the gate-budget cap is lifted — the same label the CLI
/// computes, so rows compare byte for byte.
std::string circuit_label(const std::string& circuit, bool full_scale);

/// The canonical single-line result row: Table-2 quantities (TV / ex /
/// aTV / t / m), coverage accounting, and the job's scoped obs counters
/// (nonzero values only — zero-valued names registered by unrelated code
/// paths must not make two otherwise-identical rows differ).  Keys are
/// emitted in a fixed order; doubles use the fixed %.6f format.
std::string result_row(const std::string& label, const core::StitchResult& r,
                       const obs::CounterSet& counters);

}  // namespace vcomp::serve
