"""Print one sha256 per benchmark family over the artifacts a robust run writes.

Runs every family of every workload in ``perfbench/workloads.py`` (130 at
its default seed) through ``run_robust_experiment`` on one BLAS thread, and
prints one ``workload family sha256`` line per family, the digest taken
over ``gate.ARTIFACTS`` exactly as the benchmark's gate takes it.  Then it
prints one ``fit name sha256`` line per ``FIT_CURVES`` entry, the digest of
the CSV that the ``fit`` command writes.  Desk's and certify's runs and the
first two curves fit on the calling thread, and mid's and narrow's runs and
the last curve on the thread pool, so one comparison covers both.  Two
checkouts write byte-identical artifacts exactly when their outputs do not
differ:

    python3 tools/artifact_digests.py > before.txt   # in one checkout
    python3 tools/artifact_digests.py > after.txt    # in the other
    diff before.txt after.txt

The program is imported from the ``src/`` next to the script, whatever the
working directory, and that ``src/`` is written to stderr, so a run through
another checkout's copy of the script shows which tree it measured.  Nothing
is left behind.
"""
import os

# byte-identical artifacts hold for one BLAS library at one thread count
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import orlicz_uat  # noqa: E402
import workloads  # noqa: E402
from gate import ARTIFACTS  # noqa: E402
from orlicz_uat.cli import dispatch  # noqa: E402
from orlicz_uat.robust import run_robust_experiment  # noqa: E402

# (name, points of an equally weighted grid on [0, 1], fit options): the
# README's example, acceptance criterion 10's curve, and a curve on more
# than one 4,096-point column block
FIT_CURVES = (
    ("readme", 64, ["--widths", "8,16,32", "--seeds", "0,1,2"]),
    ("criterion-10", 64, ["--widths", "4,8", "--seeds", "0,1"]),
    ("4500-points", 4500, ["--widths", "8,16,32", "--seeds", "0,1,2"]),
)


def fit_digest(tmp: str, name: str, n: int, options: list) -> str:
    measure, out = Path(tmp, f"fit-{name}.json"), Path(tmp, f"fit-{name}.csv")
    measure.write_text(json.dumps({"dim": 1, "points": np.linspace(0.0, 1.0, n)[:, None].tolist(),
                                   "weights": [1.0 / n] * n}))
    if dispatch(["fit", "--target", "sin_product", "--dim", "1", "--measure", str(measure),
                 "--phi", "power:2", "--activation", "sigmoid", *options,
                 "--out", str(out)]) != 0:
        raise RuntimeError(f"the fit curve {name} failed")
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> int:
    print(f"program imported from {Path(orlicz_uat.__file__).parent.parent}",
          file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.NAMES:
            for fseed in workloads.family_seeds(name):
                out = Path(tmp, f"{name}-{fseed}")
                run_robust_experiment(workloads.config(name, fseed), out_dir=out)
                digest = hashlib.sha256(b"".join((out / a).read_bytes() for a in ARTIFACTS))
                print(f"{name} {fseed} {digest.hexdigest()}", flush=True)
        for name, n, options in FIT_CURVES:
            print(f"fit {name} {fit_digest(tmp, name, n, options)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
