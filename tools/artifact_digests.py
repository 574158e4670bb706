"""Print one sha256 per benchmark family over the artifacts a robust run writes.

Runs every family of every workload in ``perfbench/workloads.py`` (130 at
its default seed) through ``run_robust_experiment`` on one BLAS thread, and
prints one ``workload family sha256`` line per family, the digest taken
over ``gate.ARTIFACTS`` exactly as the benchmark's gate takes it.  Then it
prints one ``fit name sha256`` line per ``FIT_CURVES`` entry, the digest of
the CSV that the ``fit`` command writes, and one ``construct name sha256``
line per ``CONSTRUCTIONS`` entry, the digest of the JSON that the
``construct`` command writes.  Desk's and certify's runs and the
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

# (name, construct options) of every construction: the gadgets, the box
# indicator, and register and clip of a relu net and register of an affine
# one; an option naming one of _FILES is that file in the temporary directory
_RELU_NET = {"input_dim": 2,
             "layers": [{"A": [[1.0, -0.5], [-0.25, 2.0], [0.5, 0.5]], "b": [0.1, -0.3, 0.0],
                         "act": "relu"},
                        {"A": [[1.5, -1.0, 0.75], [0.0, 0.5, -2.0]], "b": [0.2, -0.1],
                         "act": "none"}]}
_AFFINE_NET = {"input_dim": 2, "layers": [{"A": [[2.0, -0.5]], "b": [0.25], "act": "none"}]}
_FILES = {"relu.json": _RELU_NET, "affine.json": _AFFINE_NET,
          "box.json": {"lo": [-1.0, -1.0], "hi": [2.0, 1.5]},
          "inner.json": {"lo": [0.0, -0.5], "hi": [1.0, 0.5]}}
CONSTRUCTIONS = (
    ("identity", ["--what", "identity", "--offset", "10"]),
    ("max", ["--what", "max"]),
    ("min", ["--what", "min"]),
    ("bump", ["--what", "bump", "--a", "0", "--b", "1", "--delta", "0.5"]),
    ("box", ["--what", "box", "--box", "inner.json", "--delta", "0.25"]),
    ("register-relu", ["--what", "register", "--net", "relu.json", "--box", "box.json"]),
    ("clip-relu", ["--what", "clip", "--net", "relu.json", "--box", "box.json",
                   "--inner-box", "inner.json", "--delta", "0.25", "--clip-low", "-1",
                   "--clip-high", "1.5"]),
    ("register-affine", ["--what", "register", "--net", "affine.json", "--box", "box.json"]),
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


def construct_digest(tmp: str, name: str, options: list) -> str:
    out = Path(tmp, f"construct-{name}.json")
    argv = [str(Path(tmp, a)) if a in _FILES else a for a in options]
    if dispatch(["construct", *argv, "--out", str(out)]) != 0:
        raise RuntimeError(f"the construction {name} failed")
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
        for file, obj in _FILES.items():
            Path(tmp, file).write_text(json.dumps(obj))
        for name, options in CONSTRUCTIONS:
            print(f"construct {name} {construct_digest(tmp, name, options)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
