#pragma once

/// \file schedule_io.hpp
/// Text serialization of a stitched test program — the artifact an ATE (or
/// a downstream flow) consumes.  Format, line oriented and re-parseable:
///
///     # vcomp stitched test program
///     chain 21
///     kind ga+adi                              (optional schedule kind)
///     chains 4 round-robin 0                   (multi-chain fabrics only)
///     pis 3
///     vector <shift> <pi bits> <scan bits>     (one per applied vector)
///     observe <bits>                           (terminal observation)
///     extra <pi bits> <scan bits>              (appended full vectors)
///
/// Scan bits are written by DFF index ('-' stands for an empty field);
/// `chain` is the total cell count across all chains.  Single-chain
/// schedules omit the `chains` line and write a scalar <shift> — exactly
/// the historical format, so committed single-chain files keep parsing
/// (they read back as num_chains == 1).  Multi-chain schedules carry the
/// fabric shape (count, partition policy, partition seed) on the `chains`
/// line and write <shift> as the per-chain plan, comma separated
/// (e.g. `vector 3,2,3,2 ...`); the master shift size is the sum.
///
/// The optional `kind` line records which shift policy + selection produced
/// the schedule ("<policy>+<selection>" slug, e.g. "fixed+most-faults",
/// "ga+adi").  It is descriptive metadata: replay never branches on it.
/// Schedules with an empty kind (all files written before the field
/// existed, and hand-built ones) omit the line, so the historical format
/// still round-trips byte-identically.

#include <iosfwd>
#include <string>

#include "vcomp/core/stitch_engine.hpp"

namespace vcomp::core {

/// Serializes \p schedule (\p num_pi / \p chain_len give field widths).
void write_schedule(std::ostream& out, const StitchedSchedule& schedule);

std::string write_schedule_string(const StitchedSchedule& schedule);

/// Parses a schedule written by write_schedule; throws vcomp::ContractError
/// on malformed input: a count that is not plain decimal digits or does
/// not fit 64 bits, a token after a line's last field, or an observe
/// count larger than the chain line's length.
StitchedSchedule read_schedule(std::istream& in);

StitchedSchedule read_schedule_string(const std::string& text);

}  // namespace vcomp::core
