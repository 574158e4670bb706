"""Record the reference ``sup_l1`` and ``holder_rhs`` of every workload family.

    python3 perfbench/make_reference.py

covers the first ``FAMILIES`` families of ``--seed 0`` to ``--seed SEEDS - 1``
(and the default seed).  The gate compares each run against these values to
``rtol``; a family with no recorded value skips only that comparison.  A
change that moves the numbers moves them on every family, so a few per seed
are enough to catch it.  Rerun this, as a change of
its own, only when the program's numbers are meant to change.
"""
from __future__ import annotations

import json
import sys

import run
import workloads

RTOL = 1e-5  # the BLAS thread count alone moves sup_l1 on mid by 1.8e-7
FAMILIES = 7
SEEDS = 32


def main() -> int:
    run.pin_environment()
    run.OUT_ROOT.mkdir(parents=True, exist_ok=True)
    seeds = sorted(set(range(SEEDS)) | {workloads.DEFAULT_SEED})
    families = {}
    for name in workloads.NAMES:
        table = families[name] = {}
        for seed in seeds:
            bench = run.Bench(name, seed, None)
            for fseed in bench.timed[:FAMILIES]:
                if bench.attempt(fseed) is None:
                    print(f"{name} family seed {fseed} failed", file=sys.stderr)
                    return 1
                got = bench.outcomes[fseed]
                table[str(fseed)] = {"sup_l1": got.sup_l1, "holder_rhs": got.holder_rhs}
            print(f"{name} seed {seed} done", flush=True)
    run.REFERENCE.write_text(json.dumps({"rtol": RTOL, "families": families},
                                        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
