#!/usr/bin/env python3
"""Compare fresh BENCH_*.json results against the committed baselines.

Usage: scripts/bench_diff.py [--fresh DIR] [--baseline DIR] [--tolerance PCT]

For every committed baseline in bench/fixtures/BENCH_*.json, find the
same-named fresh result (written into build/ by the tier-1 bench fixtures),
extract the bench's primary performance field, and fail if the fresh value
regressed by more than the tolerance (default 10%). Prints a per-bench delta
table either way.

Each bench declares its primary field below: for speedup-style fields the
headline is the best point in the sweep (higher is better); for the
observability overhead the headline is the worst point (lower is better).
A baseline whose bench name is unknown is reported and skipped; a baseline
with no matching fresh file fails, since that means the tier-1 fixtures did
not regenerate it.

Exit codes: 0 ok, 1 regression (or missing fresh file), 2 usage error.
"""

import argparse
import json
import sys
from pathlib import Path

# bench name (the envelope's "bench" field) -> (primary field, direction).
# "higher": take the max over data.points and fail when the fresh max drops.
# "lower":  take the max (worst) over data.points and fail when it rises.
PRIMARY_FIELDS = {
    "spmm_fused_vs_chain": ("fused_speedup", "higher"),
    "plan_sweep": ("plan_speedup", "higher"),
    "table5_obs": ("overhead_ratio", "lower"),
    "serve_trace": ("serve_speedup", "higher"),
    "simd_sweep": ("simd_speedup", "higher"),
}


def headline(doc, field, direction):
    """The bench's single headline number: best speedup or worst overhead."""
    points = doc.get("data", {}).get("points", [])
    values = [p[field] for p in points if field in p]
    if not values:
        return None
    return max(values)  # max is "best" for speedups and "worst" for overhead


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", default="build", help="directory with fresh BENCH_*.json")
    parser.add_argument("--baseline", default="bench/fixtures",
                        help="directory with committed baselines")
    parser.add_argument("--tolerance", type=float, default=10.0,
                        help="allowed regression of the primary field, percent")
    args = parser.parse_args()

    baseline_dir = Path(args.baseline)
    fresh_dir = Path(args.fresh)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"bench_diff: no baselines under {baseline_dir}", file=sys.stderr)
        return 2

    rows = []
    failed = False
    for baseline_path in baselines:
        name = baseline_path.name
        fresh_path = fresh_dir / name
        base = load(baseline_path)
        bench = base.get("bench", "?")
        if bench not in PRIMARY_FIELDS:
            rows.append((name, bench, "-", "-", "-", "SKIP (unknown bench)"))
            continue
        field, direction = PRIMARY_FIELDS[bench]
        if not fresh_path.exists():
            rows.append((name, bench, "-", "-", "-", "FAIL (no fresh result)"))
            failed = True
            continue
        fresh = load(fresh_path)
        base_value = headline(base, field, direction)
        fresh_value = headline(fresh, field, direction)
        if base_value is None or fresh_value is None:
            rows.append((name, bench, "-", "-", "-", f"FAIL (no {field} points)"))
            failed = True
            continue

        if direction == "higher":
            delta_pct = (fresh_value / base_value - 1.0) * 100.0
            regressed = fresh_value < base_value * (1.0 - args.tolerance / 100.0)
        else:
            delta_pct = (fresh_value / base_value - 1.0) * 100.0
            regressed = fresh_value > base_value * (1.0 + args.tolerance / 100.0)
        status = "FAIL" if regressed else "ok"
        failed = failed or regressed
        rows.append((name, f"{bench}:{field}", f"{base_value:.3f}",
                     f"{fresh_value:.3f}", f"{delta_pct:+.1f}%", status))

    width = max(len(r[0]) for r in rows)
    field_width = max(len(r[1]) for r in rows)
    print(f"{'bench file':<{width}}  {'primary field':<{field_width}}  "
          f"{'baseline':>9}  {'fresh':>9}  {'delta':>7}  status")
    for row in rows:
        print(f"{row[0]:<{width}}  {row[1]:<{field_width}}  {row[2]:>9}  "
              f"{row[3]:>9}  {row[4]:>7}  {row[5]}")
    if failed:
        print(f"bench_diff: regression beyond {args.tolerance:.0f}% tolerance",
              file=sys.stderr)
        return 1
    print(f"bench_diff: all benches within {args.tolerance:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
