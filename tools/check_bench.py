#!/usr/bin/env python3
"""Soft bench-regression gate.

Compares a freshly produced bench JSON (bench_tracker / bench_table2_shift,
written via VCOMP_BENCH_JSON) against the committed baseline and flags
timing/throughput drift beyond a tolerance.  Rows are matched by their
identity keys (circuit, and config where present), so a --quick run is
compared only on the rows it actually produced; rows whose "cycles"
field differs from the baseline (a different workload) are skipped
outright.

Per-row "counters" objects (the obs work counters embedded by the bench
binaries) and the paper's headline fields (m, t, tv, ex) are exempt from
the tolerance: they are deterministic by contract, so any mismatch at all
is flagged.  Timings and rates keep the ±tolerance treatment, but only
when both documents ran at the same "threads" count: at another thread
count the table benches run configs concurrently, so their seconds and
rates measure a different thing and are skipped (with a note).

Intended as a *soft* gate: CI shared runners are noisy, so regressions are
emitted as GitHub warning annotations and the exit code stays 0 unless
--strict is given.

Usage:
  check_bench.py --fresh fresh.json --baseline BENCH_tracker.json \
                 [--tolerance 0.25] [--strict]
"""

import argparse
import json
import os
import sys

# Per-row fields judged with the tolerance; direction says which way is bad.
TIME_FIELDS = ("seconds", "shift_seconds", "total_seconds")
RATE_SUFFIX = "_per_sec"
# Exact per-row fields: the memory and test-time ratios and the vector
# counts behind them are outputs of the flow, not measurements.
EXACT_FIELDS = ("m", "t", "tv", "ex")
# Timings below this are scheduler-noise-dominated; never gate them.
MIN_GATED_SECONDS = 1e-3


def load_rows(doc):
    """Returns (row_dict, key_fields) for either bench JSON shape."""
    for array_key, keys in (("circuits", ("circuit",)),
                            ("configs", ("circuit", "config")),
                            ("kernels", ("circuit", "dispatch")),
                            ("jobs", ("circuit", "config"))):
        if array_key in doc:
            rows = {}
            for row in doc[array_key]:
                rows[tuple(row[k] for k in keys)] = row
            return rows, keys
    raise SystemExit(
        "unrecognized bench JSON: no 'circuits', 'configs' or 'kernels'")


def annotate(kind, message):
    if os.environ.get("GITHUB_ACTIONS"):
        print(f"::{kind}::{message}")
    else:
        print(f"{kind}: {message}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--tolerance", type=float, default=0.25)
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero on regressions")
    ap.add_argument("--require-learned-win", action="store_true",
                    help="hard gate (exit 1): the baseline must contain at "
                         "least one row whose m beats its paper_best_m — "
                         "the learned-schedule acceptance contract on the "
                         "committed BENCH_learned.json")
    args = ap.parse_args()

    if not os.path.isfile(args.baseline):
        raise SystemExit(f"baseline not found: {args.baseline}")
    with open(args.fresh) as f:
        fresh_doc = json.load(f)
    with open(args.baseline) as f:
        base_doc = json.load(f)

    fresh, keys = load_rows(fresh_doc)
    base, base_keys = load_rows(base_doc)
    if keys != base_keys:
        raise SystemExit("fresh and baseline JSON have different shapes")

    shared = sorted(set(fresh) & set(base))
    if not shared:
        raise SystemExit("no common rows between fresh and baseline")
    for missing in sorted(set(base) - set(fresh)):
        print(f"note: baseline row {missing} absent from fresh run "
              f"(quick mode?)")

    tol = args.tolerance
    fresh_threads = fresh_doc.get("threads")
    base_threads = base_doc.get("threads")
    compare_timings = (fresh_threads is None or base_threads is None
                       or fresh_threads == base_threads)
    if not compare_timings:
        print(f"note: fresh run used {fresh_threads} threads vs baseline "
              f"{base_threads}; time and {RATE_SUFFIX} fields not compared")
    regressions = []
    for key in shared:
        frow, brow = fresh[key], base[key]
        label = "/".join(str(k) for k in key)
        # A row is only comparable when it ran the same workload: a
        # --quick tracker run walks fewer cycles than the committed
        # baseline, which skews timings, rates and counters alike.
        if "cycles" in brow and frow.get("cycles") != brow.get("cycles"):
            print(f"note: {label} ran {frow.get('cycles')} cycles vs "
                  f"baseline {brow.get('cycles')}; row skipped "
                  f"(workload mismatch)")
            continue
        for field in EXACT_FIELDS:
            if field in brow and frow.get(field) != brow[field]:
                regressions.append(
                    f"{label} {field}: {frow.get(field)} vs baseline "
                    f"{brow[field]} (exact match required)")
        if compare_timings:
            for field, bval in brow.items():
                if not isinstance(bval, (int, float)) \
                        or isinstance(bval, bool):
                    continue
                fval = frow.get(field)
                if not isinstance(fval, (int, float)) or bval == 0:
                    continue
                ratio = fval / bval
                if field in TIME_FIELDS and bval < MIN_GATED_SECONDS:
                    continue
                if field in TIME_FIELDS and ratio > 1 + tol:
                    regressions.append(
                        f"{label} {field}: {fval:.4g}s vs baseline "
                        f"{bval:.4g}s (+{(ratio - 1) * 100:.0f}%)")
                elif field.endswith(RATE_SUFFIX) and ratio < 1 - tol:
                    regressions.append(
                        f"{label} {field}: {fval:.4g} vs baseline "
                        f"{bval:.4g} (-{(1 - ratio) * 100:.0f}%)")
        # The serve bench's canonical result row is a determinism
        # artifact, not a timing: byte-identical across machines, thread
        # counts, concurrency and arrival order, so it is compared
        # literally (any drift is a behavior change).
        brow_str, frow_str = brow.get("row"), frow.get("row")
        if isinstance(brow_str, str) and isinstance(frow_str, str) \
                and brow_str != frow_str:
            regressions.append(
                f"{label} row: result row differs from baseline "
                f"(byte comparison; determinism contract)")
        # Work counters are exact: byte-identical across machines and
        # thread counts, so any drift is a behavior change, not noise.
        # A counter present on only one side (an older baseline predating
        # the counter, or a retired one) is treated as an implicit zero:
        # flagged only when the side that has it is nonzero.
        bcounters = brow.get("counters")
        if isinstance(bcounters, dict):
            fcounters = frow.get("counters") or {}
            for name in sorted(set(bcounters) | set(fcounters)):
                bval, fval = bcounters.get(name), fcounters.get(name)
                if bval is None or fval is None:
                    present = bval if fval is None else fval
                    if present:
                        side = "baseline" if fval is None else "fresh run"
                        regressions.append(
                            f"{label} counters.{name}: only in {side} "
                            f"with value {present} (expected 0 or both "
                            f"sides)")
                elif bval != fval:
                    regressions.append(
                        f"{label} counters.{name}: {fval} vs baseline "
                        f"{bval} (exact match required)")

    print(f"compared {len(shared)} rows at ±{tol * 100:.0f}% tolerance")
    for r in regressions:
        annotate("warning", f"bench regression: {r}")
    if not regressions:
        print("no regressions beyond tolerance")

    # Learned-schedule win gate: a *hard* requirement on the committed
    # baseline (quick/filtered fresh runs may not carry the winning
    # circuit, so the baseline is what is judged), independent of --strict.
    if args.require_learned_win:
        wins = [
            "/".join(str(k) for k in key)
            for key, row in sorted(base.items())
            if isinstance(row.get("m"), (int, float))
            and isinstance(row.get("paper_best_m"), (int, float))
            and row["m"] < row["paper_best_m"]
        ]
        if wins:
            print(f"learned win: {', '.join(wins)} beat paper_best_m")
        else:
            annotate("error", "no baseline row beats its paper_best_m "
                     "(learned-schedule acceptance gate)")
            return 1

    return 1 if (regressions and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
