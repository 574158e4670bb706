"""Print one sha256 per benchmark family over the artifacts a robust run writes.

Runs every family of every workload in ``perfbench/workloads.py`` (130 at
its default seed) through ``run_robust_experiment`` on one BLAS thread, and
prints one ``workload family sha256`` line per family, the digest taken
over ``gate.ARTIFACTS`` exactly as the benchmark's gate takes it.  Two
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
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import orlicz_uat  # noqa: E402
import workloads  # noqa: E402
from gate import ARTIFACTS  # noqa: E402
from orlicz_uat.robust import run_robust_experiment  # noqa: E402


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
