#!/usr/bin/env python3
"""Gate serving-transport latency against a checked-in baseline.

Usage: check_transport.py <baseline.json> <current.json> [--tolerance 0.15]

Both files are the flat {"reactor_c<clients>_{p50_ms,p95_ms,ops_per_s}": N}
object that `bench_serving --transport_json <path>` emits (E13: concurrent
raw clients sweeping a warm store's epoll reactor).

The gate is the reactor's p95 op latency at the HIGHEST client count the
run swept: timing rows are noisy (unlike the byte-exact wire sizes), so
only that one headline number gates, with a relative tolerance plus a
small absolute grace floor to keep sub-millisecond rows from flapping on
scheduler jitter. Everything else is printed for the trajectory artifact.
Fails (exit 1) on a gated regression or when the reactor's top row
disappeared from the current run (a sweep that silently shrank).
"""

import re
import sys

import check_baseline

# Sub-ms p95s wobble by scheduler quantum; never fail inside this margin.
ABS_GRACE_MS = 0.25


def top_reactor_count(data):
    counts = [int(m.group(1)) for key in data
              if (m := re.fullmatch(r"reactor_c(\d+)_p95_ms", key))]
    return max(counts) if counts else None


def main() -> int:
    args = check_baseline.make_parser(__doc__, tolerance=0.15).parse_args()
    baseline, current = check_baseline.load_pair(args)

    check_baseline.print_diff_table(baseline, current, key_width=26)

    failures = []
    base_top = top_reactor_count(baseline)
    cur_top = top_reactor_count(current)
    if base_top is None:
        failures.append("no reactor p95 rows in the baseline; nothing "
                        "to gate")
        return check_baseline.finish(failures, "transport regression", "")
    if cur_top is None or cur_top < base_top:
        failures.append(f"the current sweep lost the reactor c{base_top} "
                        f"row (now tops out at c{cur_top})")
        return check_baseline.finish(failures, "transport regression", "")

    key = f"reactor_c{base_top}_p95_ms"
    base = baseline[key]
    cur = current[key]
    ceiling = base * (1.0 + args.tolerance) + ABS_GRACE_MS
    if cur > ceiling:
        failures.append(f"{key} {base} -> {cur} ms (ceiling {ceiling:.3f} "
                        f"= +{args.tolerance:.0%} + {ABS_GRACE_MS} ms "
                        f"grace)")
    return check_baseline.finish(
        failures, "transport regression",
        f"{key} within tolerance of baseline ({cur} <= {ceiling:.3f} ms)")


if __name__ == "__main__":
    sys.exit(main())
