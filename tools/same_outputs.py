"""Check that two checkouts give the same outputs on one benchmark workload.

Runs one round of the workload's ops in each checkout, each round in its own
subprocess that imports confhess and the benchmark from that checkout, with
the inputs built from ``--seed``.  Every op's output is reduced to a digest
by ``bench/run.py``'s ``fingerprint`` (an op that raises a confhess error is
reduced to the error's text).  Prints ``equal`` or ``differs`` per op, and
exits with 1 if any op differs or is missing on one side, with 2 if a
round could not run.

    python tools/same_outputs.py PARENT CHANGE --workload cone_sampling --seed 1
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

#: One round in the checkout ``argv[1]``: prints ``{op label: digest}`` as JSON.
ROUND = r"""
import json, sys
from pathlib import Path
root = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import run  # before numpy: it sets the BLAS threads to one
import workloads
from confhess.errors import ConfhessError
wl = workloads.WORKLOADS[sys.argv[2]]()
wl.prepare()
digests = {}
for op in wl.ops(wl.inputs(int(sys.argv[3]))):
    try:
        digests[op.label] = run.fingerprint(op.fn())
    except ConfhessError as exc:
        digests[op.label] = f"raised {type(exc).__name__}: {exc}"
print(json.dumps(digests))
"""


def digests(checkout, workload, seed):
    """``{op label: digest}`` of one round in ``checkout``; raises RuntimeError with
    the round's last line of standard error if it fails."""
    out = subprocess.run([sys.executable, "-c", ROUND, str(checkout), workload, str(seed)],
                         capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        err = out.stderr.strip().splitlines()[-1:] or [f"exit {out.returncode}"]
        raise RuntimeError(f"{checkout}: {err[0]}")
    return json.loads(lines[-1])


def compare(parent, change):
    """``[(label, verdict)]`` for every op of either side, in the parent's order and
    then the change's new ops: ``equal``, ``differs``, ``only in parent`` or
    ``only in change``."""
    labels = list(parent) + [label for label in change if label not in parent]
    return [(label, "only in change" if label not in parent
             else "only in parent" if label not in change
             else "equal" if parent[label] == change[label] else "differs")
            for label in labels]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    try:
        verdicts = compare(digests(args.parent, args.workload, args.seed),
                           digests(args.change, args.workload, args.seed))
    except RuntimeError as exc:
        print(f"same_outputs: {exc}", file=sys.stderr)
        return 2
    for label, verdict in verdicts:
        print(f"{verdict:<15} {label}")
    same = all(verdict == "equal" for _, verdict in verdicts)
    print(f"{args.workload} seed {args.seed}: "
          + ("every op equal" if same else "outputs differ"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
