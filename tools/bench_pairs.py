"""Compare two checkouts on one benchmark workload by alternating pairs of runs.

Each pair runs ``bench/run.py`` once in each checkout, with one fresh seed per
pair; the checkout that runs first alternates from pair to pair, so that a
drift of the machine's speed hits both sides alike.  For every end-to-end
metric of ``BENCHMARK.json`` the script prints each side's median and
quartiles, the ratio of the medians, and in how many pairs the change did
better.  A gain is claimed when the change did better in at least nine of
ten pairs and its median is better than the parent's by more than the
parent's interquartile range.  Runs with ``correct: false`` or failed ops are
flagged.  Each run's minor page faults (its process tree's ``ru_minflt``) are
printed with its pair and summarized in one more row, which claims nothing.

    python tools/bench_pairs.py PARENT CHANGE --workload operator_batch \\
        [--pairs 10] [--seconds 35] [--seed 1000]

PARENT and CHANGE are checkout directories; seeds run from ``--seed``
upwards, one per pair (drawn at random when not given).
"""

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

#: share of the pairs the change must win for a claim (9 of 10)
WIN_SHARE = 0.9


def run_bench(checkout, workload, seed, seconds):
    """The result line of one ``bench/run.py`` run in ``checkout``, as a dict, with
    the minor page faults of the run's processes under ``minor_faults``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "minor_faults": faults,
                "error": out.stderr.strip().splitlines()[-1:] or [f"exit {out.returncode}"]}
    return {**json.loads(lines[-1]), "minor_faults": faults}


def quartiles(values):
    """``(q1, median, q3)`` of the values (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(a, b, lower=True):
    """Both sides' quartiles, the ratio of medians and the change's wins."""
    qa, qb = quartiles(a), quartiles(b)
    return {"parent": qa, "change": qb, "ratio": qb[1] / qa[1] if qa[1] else math.nan,
            "wins": sum((y < x) if lower else (y > x) for x, y in zip(a, b)),
            "pairs": len(a)}


def summarize(pairs, metrics):
    """Per metric: both sides' quartiles, the ratio of medians, the wins and the claim.

    ``pairs`` is a list of ``(parent, change)`` result dicts as ``run_bench``
    returns them; ``metrics`` the ``end_to_end`` entries of ``BENCHMARK.json``
    (``name`` and ``better``).  Returns ``{"metrics": {name: {...}}, "faults":
    {...}, "flags": [...]}``; a metric missing from any run is left out, and
    ``faults`` compares the runs' ``minor_faults`` (fewer is better, never claimed)."""
    flags = []
    for i, pair in enumerate(pairs):
        for side, res in zip(("parent", "change"), pair):
            if not res.get("correct", False) or res.get("failed", 0):
                flags.append(f"pair {i} {side}: correct={res.get('correct')} "
                             f"failed={res.get('failed')}/{res.get('attempted')}")
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        if not all(name in res.get("metrics", {}) for pair in pairs for res in pair):
            continue
        m = compare([p["metrics"][name]["value"] for p, _ in pairs],
                    [c["metrics"][name]["value"] for _, c in pairs], lower)
        qa, qb = m["parent"], m["change"]
        gap = (qa[1] - qb[1]) if lower else (qb[1] - qa[1])
        m["claim"] = m["wins"] >= math.ceil(WIN_SHARE * len(pairs)) and gap > qa[2] - qa[0]
        out[name] = m
    faults = compare([p["minor_faults"] for p, _ in pairs],
                     [c["minor_faults"] for _, c in pairs])
    return {"metrics": out, "faults": faults, "flags": flags}


def report(summary):
    """The summary as text lines."""
    lines = [f"{'metric':<14}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
             f"{'ratio':>8}{'wins':>7}  claim"]
    rows = [*summary["metrics"].items(), ("minor_faults", {**summary["faults"], "claim": None})]
    for name, m in rows:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)   # noqa: E731
        lines.append(f"{name:<14}{fmt(m['parent']):>30}{fmt(m['change']):>30}"
                     f"{m['ratio']:8.3f}{m['wins']:>4}/{m['pairs']:<2}  "
                     f"{'-' if m['claim'] is None else 'holds' if m['claim'] else 'no'}")
    lines += [f"FLAG {f}" for f in summary["flags"]]
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)
    base = random.SystemRandom().randrange(2 ** 30) if args.seed is None else args.seed
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        seed = base + i
        order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        res = {side: run_bench(side, args.workload, seed, args.seconds) for side in order}
        pairs.append((res[args.parent], res[args.change]))
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{name} {res[args.parent]['metrics'].get(name, {}).get('value', math.nan):.4g}"
            f" -> {res[args.change]['metrics'].get(name, {}).get('value', math.nan):.4g}"
            for name in ("wall_s", "op_p50_ms"))
            + f", minor_faults {res[args.parent]['minor_faults']}"
            f" -> {res[args.change]['minor_faults']}", flush=True)
    print("\n".join(report(summarize(pairs, metrics))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
