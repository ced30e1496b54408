#!/usr/bin/env python3
"""Gate wire-payload sizes against a checked-in baseline.

Usage: check_wire_sizes.py <baseline.json> <current.json> [--tolerance 0.10]

Both files are the flat {"<payload>_bytes_bin": N} object that
`bench_serving --wire_json <path>` emits (E12: every byte count is the
exact encoded size of a fixed, deterministic payload set, so run-to-run
noise is zero and a tight tolerance is safe).

Fails (exit 1) when any payload grows more than `tolerance` above its
baseline — a codec change that quietly fattens the wire — or when a
key present in the baseline disappeared. Shrinking below baseline is
reported but passes; refresh the baseline to lock in the win.
"""

import sys

import check_baseline


def main() -> int:
    args = check_baseline.make_parser(__doc__, tolerance=0.10).parse_args()
    baseline, current = check_baseline.load_pair(args)

    failures = []

    def gate(key, base, cur):
        if cur > base * (1.0 + args.tolerance):
            delta = (cur - base) / base if base else 0.0
            failures.append(f"{key}: {base} -> {cur} bytes (+{delta:.1%}, "
                            f"tolerance {args.tolerance:.0%})")
            return "  <-- REGRESSION"
        return ""

    check_baseline.print_diff_table(baseline, current, key_header="payload",
                                    val_width=9, marker=gate)
    for key in sorted(set(baseline) - set(current)):
        failures.append(f"{key}: present in baseline but missing from the "
                        f"current run")

    return check_baseline.finish(failures, "wire-size regression",
                                 "wire sizes within tolerance of baseline")


if __name__ == "__main__":
    sys.exit(main())
