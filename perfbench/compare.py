"""Collect sets of benchmark runs and compare them against the bounds.

    python3 perfbench/compare.py collect --runs 10 perfbench/out/a perfbench/out/b
    python3 perfbench/compare.py diff perfbench/out/a perfbench/out/b

``collect`` runs every workload of ``BENCHMARK.json`` once per seed
(1..runs), alternating which set goes first from one seed to the next,
and keeps each run's result line as ``<set>/<workload>-<seed>.json``.

``diff`` prints, for each workload and end-to-end metric, the median and
quartiles of each set, each set's spread (quartile distance over the
median) against the metric's bound, and whether the second median is
within the bound of the first. It also checks that both sets fail the
same share of operations. It exits 1 if any of this is out of bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(sets: list[Path], runs: int, workloads: list[str]) -> None:
    for directory in sets:
        directory.mkdir(parents=True, exist_ok=True)
    for seed in range(1, runs + 1):
        order = sets if seed % 2 else sets[::-1]
        for workload in workloads:
            for directory in order:
                command = SPEC["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
                ]
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
                if done.returncode != 0:
                    sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
                line = done.stdout.strip().splitlines()[-1]
                (directory / f"{workload}-{seed}.json").write_text(line + "\n")
                print(f"{directory.name} {workload} seed {seed}: {line[:100]}...", flush=True)


def _load(directory: Path, workload: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob(f"{workload}-*.json"))]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def diff(first: Path, second: Path) -> bool:
    ok = True
    for workload in [w["name"] for w in SPEC["workloads"]]:
        runs = [_load(first, workload), _load(second, workload)]
        if not all(len(r) >= 2 for r in runs):
            print(f"{workload}: fewer than two runs in a set, skipped")
            continue
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs]
        correct = all(r["correct"] for rs in runs for r in rs)
        print(f"\n{workload}: runs {len(runs[0])}/{len(runs[1])}, failed share {shares[0]:.6f}/{shares[1]:.6f}, all correct {correct}")
        ok &= correct and shares[0] == shares[1]
        print(f"  {'metric':<28} {'bound':>5}  {'median A':>12} {'q1..q3 A':>25} {'spread':>7}  {'median B':>12} {'spread':>7} {'B vs A':>7}  verdict")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [_quartiles([r["metrics"][name]["value"] for r in rs]) for rs in runs]
            spreads = [(q3 - q1) / med for q1, med, q3 in stats]
            (q1a, ma, q3a), (_, mb, _) = stats
            change = (mb - ma) / ma
            worse = change if metric["better"] == "lower" else -change
            spread_ok = name == "setup_s" or max(spreads) <= bound
            verdict = "ok" if spread_ok and worse <= bound else "OUT"
            ok &= verdict == "ok"
            print(
                f"  {name:<28} {bound:>5.2f}  {ma:>12.4f} {q1a:>12.4f}..{q3a:<12.4f} {spreads[0]:>7.2%}"
                f"  {mb:>12.4f} {spreads[1]:>7.2%} {change:>+7.2%}  {verdict}"
            )
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect")
    c.add_argument("sets", nargs="+", type=Path)
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--workload", action="append", dest="workloads")
    d = sub.add_parser("diff")
    d.add_argument("first", type=Path)
    d.add_argument("second", type=Path)
    args = parser.parse_args()
    if args.mode == "collect":
        workloads = args.workloads or [w["name"] for w in SPEC["workloads"]]
        collect(args.sets, args.runs, workloads)
        return 0
    return 0 if diff(args.first, args.second) else 1


if __name__ == "__main__":
    sys.exit(main())
