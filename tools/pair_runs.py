"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python3 tools/pair_runs.py A B --workload W --seed S --pairs N [--seconds 40]

Runs the benchmark command of each checkout's BENCHMARK.json
(`python3 perfbench/run.py`) with `--workload W --seed S --seconds T
--trace 0`, in checkout A and in checkout B in turn, each run in a fresh
process. A goes first in even pairs and B in odd ones, so that a drift in
the machine's speed weighs on both sides alike. Only the last line of a
run's output, its JSON result, is read.

For each end-to-end metric it prints each side's median and quartiles, the
number of pairs B won (ties count for neither side), the median of the
pair ratios B/A, whether the medians differ by more than the distance
between A's quartiles, and whether a claim that B is better holds: B won
at least nine tenths of the pairs and the medians differ by more than that
distance. Then it lists every run that failed, reported
failed operations or ended `correct: false`. It exits 1 if there was such
a run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | str:
    """The JSON result of one benchmark run in `checkout`, or why there is none."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(lines[-1])
    except ValueError:
        return f"last line is not JSON: {lines[-1][:80]!r}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """One line per end-to-end metric that both sides' runs report."""
    lines = [f"{'metric':<16} {'A median [q1, q3]':<30} {'B median [q1, q3]':<30} "
             f"{'B wins':<7} {'B/A':>6}  {'gap > A IQR':<12} claim holds"]
    pairs = list(zip(runs["A"], runs["B"]))
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in pairs
                if name in a.get("metrics", {}) and name in b.get("metrics", {})]
        if not both:
            continue
        a_q = quartiles([a for a, _ in both])
        b_q = quartiles([b for _, b in both])
        wins = sum((b > a) if higher else (b < a) for a, b in both)
        ratio = statistics.median(b / a for a, b in both if a)
        gap = abs(b_q[1] - a_q[1]) > a_q[2] - a_q[0]
        a_cell, b_cell = (f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (a_q, b_q))
        holds = gap and wins >= 0.9 * len(both)
        lines.append(f"{name:<16} {a_cell:<30} {b_cell:<30} {f'{wins}/{len(both)}':<7} "
                     f"{ratio:>6.3f}  {'yes' if gap else 'no':<12} {'yes' if holds else 'no'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the baseline checkout")
    parser.add_argument("b", type=Path, help="the checkout compared with it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    sides = {"A": args.a.resolve(), "B": args.b.resolve()}
    spec = json.loads((sides["A"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs: dict[str, list[dict]] = {"A": [], "B": []}
    bad: list[str] = []
    for k in range(args.pairs):
        results = {}
        for side in ("AB" if k % 2 == 0 else "BA"):
            result = run_once(sides[side], args.workload, args.seed, args.seconds)
            if isinstance(result, str) or not result.get("correct") or result.get("failed"):
                bad.append(f"pair {k} {side}: " + (result if isinstance(result, str) else
                           f"correct {result.get('correct')}, failed {result.get('failed')} "
                           f"of {result.get('attempted')}"))
            results[side] = result
            print(f"pair {k} {side} done", file=sys.stderr, flush=True)
        if all(isinstance(r, dict) for r in results.values()):
            for side, result in results.items():
                runs[side].append(result)

    print(f"{args.workload}, seed {args.seed}, {len(runs['A'])} pairs of {args.seconds:g}-s runs;"
          f" A = {sides['A']}, B = {sides['B']}")
    print("\n".join(report(spec["end_to_end"], runs)))
    for line in bad:
        print(f"BAD RUN {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
