#!/usr/bin/env python3
"""Gate the dynamic trace replay (E15) against a checked-in baseline.

Usage: check_replay.py <baseline.json> <current.json> [--tolerance 0.30]

Both files are the flat {"replay_*": N} object that `bench_serving
--replay_json <path>` emits (E15: a 520-event generated trace — bursty
arrivals, hot-stream mutations, one mid-trace host kill — replayed through
a 2-host PlanRouter fleet with near-key warm starts).

Three gates:
  * identity is absolute: every re-solved winner must certify bit-identical
    to its cold serial reference (replay_identical == 1, zero mismatches),
    the codec round trip must be byte-exact, and the host kill must have
    replayed — these are correctness bits, not trajectories;
  * the near-hit count must hold a floor relative to baseline (at least
    half, never zero): losing warm starts silently would regress tail
    latency without failing identity;
  * p95 submit-to-settle latency gates with a relative tolerance plus an
    absolute grace floor (replay latencies ride on solver wall clock, the
    noisiest number here).

Counters that merely drift (aborts, cache hits, store traffic) print in
the diff table for the trajectory artifact but do not gate.
"""

import sys

import check_baseline

# Replay p95 includes real solve time on a shared runner; never fail
# inside this absolute margin.
ABS_GRACE_MS = 1.0

# The near-hit floor: current must keep at least this fraction of the
# baseline's near hits (and at least one).
NEAR_HIT_KEEP = 0.5


def main() -> int:
    args = check_baseline.make_parser(__doc__, tolerance=0.30).parse_args()
    baseline, current = check_baseline.load_pair(args)

    check_baseline.print_diff_table(baseline, current, key_width=26)

    failures = []

    # Correctness bits from the current run.
    if current.get("replay_identical") != 1:
        failures.append(
            f"winner identity broken: replay_identical = "
            f"{current.get('replay_identical')}, replay_mismatches = "
            f"{current.get('replay_mismatches')} — a re-solved winner "
            "diverged from its cold serial reference")
    if current.get("replay_codec_roundtrip") != 1:
        failures.append("trace codec round trip is no longer byte-exact")
    if current.get("replay_host_kills", 0) < 1:
        failures.append("the mid-trace host kill did not replay")

    # The replay must not silently shrink: same seeded trace, same solves.
    base_solves = baseline.get("replay_solves")
    cur_solves = current.get("replay_solves")
    if base_solves is not None and (cur_solves is None
                                    or cur_solves < base_solves):
        failures.append(f"replay shrank: {base_solves} solves in the "
                        f"baseline, {cur_solves} now")

    # Near-hit floor.
    base_near = baseline.get("replay_near_hits", 0)
    cur_near = current.get("replay_near_hits", 0)
    floor = max(1, int(base_near * NEAR_HIT_KEEP))
    if cur_near < floor:
        failures.append(f"near hits collapsed: {base_near} -> {cur_near} "
                        f"(floor {floor} = max(1, {NEAR_HIT_KEEP:.0%} of "
                        "baseline)) — the warm-start path stopped firing")

    # p95 tail.
    base_p95 = baseline.get("replay_p95_ms")
    cur_p95 = current.get("replay_p95_ms")
    if base_p95 is None or cur_p95 is None:
        failures.append("replay_p95_ms missing from "
                        f"{'baseline' if base_p95 is None else 'current'} — "
                        "nothing to gate")
    else:
        ceiling = base_p95 * (1.0 + args.tolerance) + ABS_GRACE_MS
        if cur_p95 > ceiling:
            failures.append(f"replay_p95_ms {base_p95} -> {cur_p95} ms "
                            f"(ceiling {ceiling:.3f} = +{args.tolerance:.0%}"
                            f" + {ABS_GRACE_MS} ms grace)")

    return check_baseline.finish(
        failures, "replay regression",
        f"replay identity holds, {cur_near} near hits (floor {floor}), "
        f"p95 {cur_p95} ms within tolerance")


if __name__ == "__main__":
    sys.exit(main())
