"""Benchmark of confhess: one workload per process, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cone_sampling --seed 1 --seconds 35 --trace 0

The process imports confhess from the checkout's ``src/``, builds the
workload's inputs from ``--seed``, warms up, and then repeats rounds (the
workload's fixed set of ops): at least twice, then while another round
still fits into ``--seconds``.  Outputs of the first round are checked; later rounds must
reproduce them bit for bit.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics from
traced spans (``--trace 1``, spans written to ``bench/out/``).  See
``bench/README.md`` for the workloads, the metrics and reference figures.

Times are medians over the repetitions within the run: the shared
machine's speed swings by up to 2x within seconds, and over 20 s windows
the median moves least (see the README).
"""

import time

PROCESS_T0 = time.perf_counter()

# pylint: disable=wrong-import-position
import os  # noqa: E402

# One BLAS thread: the run process is single-threaded.  Must precede the
# first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
#: setup (import, inputs, warm-up) is measured this many times; the import
#: is repeated in fresh interpreters, the rest in this process
SETUP_REPEATS = 3
#: at least this many rounds, so a round of 10 s still has a median of two
MIN_ROUNDS = 2
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import confhess; print(time.perf_counter() - t)")


def fingerprint(value, h=None):
    """Digest of an op's output, to confirm that rounds reproduce round 1."""
    import numpy as np

    top = h is None
    h = hashlib.blake2b(digest_size=16) if top else h
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            h.update(str(key).encode())
            fingerprint(value[key], h)
    elif isinstance(value, (list, tuple)):
        for item in value:
            fingerprint(item, h)
    elif isinstance(value, np.ndarray):
        h.update(str(value.dtype).encode() + str(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest() if top else None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_confhess():
    """Import confhess from the checkout; seconds taken, or None on failure."""
    t = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import confhess
    except ImportError as exc:
        print(f"bench: cannot import confhess from {SRC}: {exc}", file=sys.stderr)
        return None
    if Path(confhess.__file__).resolve().parent.parent != SRC.resolve():
        print(f"bench: confhess imported from {confhess.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return time.perf_counter() - t


def probe_import():
    """Seconds a fresh interpreter takes to import confhess from the checkout."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def run_rounds(wl, ops, inp, seconds, tracer):
    """Repeat the round MIN_ROUNDS times, then while another fits into ``seconds``.

    Returns per-round op times, the failed count and the check problems.
    An op that raises a confhess error counts as failed and as a problem.
    """
    from confhess.errors import ConfhessError

    rounds, failed, problems, digests = [], 0, [], {}
    start = time.perf_counter()
    while True:
        first = not rounds
        times = []
        for idx, op in enumerate(ops):
            if tracer is not None:
                tracer.op = idx
            t = time.perf_counter()
            try:
                out = op.fn()
            except ConfhessError as exc:
                out = exc
            times.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.op = tracer.UNTIMED
            if isinstance(out, ConfhessError):
                failed += 1
                problems.append(f"{op.label}: raised {type(out).__name__}: {out}")
                continue
            failed += bool(wl.failed(op, out))
            digest = fingerprint(out)
            if first:
                digests[op.label] = digest
                problems += wl.check(op, out, inp)
            elif digests[op.label] != digest:
                problems.append(f"{op.label}: output differs from round 1")
            del out
        if tracer is not None:
            tracer.rounds.append(sum(times))
        rounds.append(times)
        if len(rounds) >= MIN_ROUNDS and \
                time.perf_counter() - start + max(map(sum, rounds)) > seconds:
            return rounds, failed, problems


def main(argv=None):
    args = parse_args(argv)
    pre_import_s = time.perf_counter() - PROCESS_T0
    import_s = import_confhess()
    if import_s is None:
        return 2
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload '{args.workload}'; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    imports_s = [import_s] + [probe_import() for _ in range(SETUP_REPEATS - 1)]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload]()
    wl.prepare()

    # Inputs from the seed, then one warm-up op of each kind.
    inputs_s, warmup_s = [], []
    inp = None
    for _ in range(SETUP_REPEATS):
        inp = None
        t0 = time.perf_counter()
        inp = wl.inputs(args.seed)
        t1 = time.perf_counter()
        wl.warmup(inp)
        t2 = time.perf_counter()
        inputs_s.append(t1 - t0)
        warmup_s.append(t2 - t1)
    setup_s = (pre_import_s + statistics.median(imports_s)
               + statistics.median(map(sum, zip(inputs_s, warmup_s))))

    ops = wl.ops(inp)
    rounds, failed, problems = run_rounds(wl, ops, inp, args.seconds, tracer)
    attempted = len(ops) * len(rounds)
    op_s = [statistics.median(col) for col in zip(*rounds)]   # each op over the rounds
    round_s = statistics.median(map(sum, rounds))

    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: import {statistics.median(imports_s):.3f} s, "
          f"inputs {statistics.median(inputs_s):.3f} s, "
          f"warm-up {statistics.median(warmup_s):.3f} s (medians of {SETUP_REPEATS})")
    print(f"bench: {len(rounds)} rounds of {len(ops)} ops, median round {round_s:.4f} s, "
          f"median op times {min(op_s):.4f}..{max(op_s):.4f} s, "
          f"{failed}/{attempted} failed, {len(problems)} check failures")

    if tracer is not None:
        tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        metrics = spans.layer_metrics(tracer, import_ms=1e3 * statistics.median(imports_s),
                                      inputs_ms=1e3 * statistics.median(inputs_s))
        print(f"bench: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": round_s, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(op_s), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
