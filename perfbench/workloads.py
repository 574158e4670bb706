"""The benchmark's four robust-pipeline workloads, generated from a seed.

Every workload sets ``epsilon = 1e-9`` so that no candidate ever beats it and
the whole width/seed schedule runs.  The family seed is the only input that
changes with ``--seed``; everything else is fixed, so two seeds give two
different families of the same size and shape.

Why these four (the layer each one loads most, from profiles of the seed
program on a 2-core box):

* ``desk``  -- tiny arrays: per-call Python overhead (pool start per width,
  gauge bisection loops, per-feature seed spawning) dominates.  An array
  kernel optimisation should show no change here.
* ``mid``   -- an 81,920-point dominating support: Gram/Cholesky fits, the
  Python point index in ``MeasureFamily.from_members`` and evaluation of
  every candidate on every member.
* ``narrow`` -- case ii: candidates rewritten into register form (width 4,
  about 130 layers) and clipped, so deep-network evaluation dominates and
  ``network.json`` is the largest artifact.
* ``certify`` -- case iii with an ``entropy`` psi, so phi_M is
  ``exp_minus_linear``: the family build and 130 gauge norms of sparse
  density tables dominate, one schedule entry runs and the thread pool is
  never started.  A fit optimisation should show no change here.
"""
from __future__ import annotations

DEFAULT_SEED = 11
EPSILON = 1e-9
NAMES = ("desk", "mid", "narrow", "certify")

# One run of the benchmark cycles through several families, all made from
# --seed: family j has seed ``seed + FAMILY_STRIDE * j``, so family 0 is the
# seed argument itself.  The run time of a single family moves by a few
# percent between seeds; timing a fixed set of families keeps run_s steady.
# The count is fixed per workload, so it never depends on how fast the
# program runs.
FAMILY_STRIDE = 1000
FAMILIES = {"desk": 100, "mid": 9, "narrow": 14, "certify": 7}

# sup_l1 and holder_rhs are reported for a fixed panel: the first PANEL
# families of the default seed, whatever --seed is.  For one family both
# repeat to about 1e-7, but from family to family they move by up to a
# third, so a mean over seeded families would spread by several percent
# between seeds and hide a certificate a few percent worse.  The panel runs
# first, untimed, and is the warm-up.
PANEL = 3

_UNIT_1D = {"lo": [0.0], "hi": [1.0]}
_UNIT_2D = {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}


def _mixtures(count: int, points: int, box: dict, seed: int) -> dict:
    return {"kind": "mixtures", "count": count, "points": points,
            "seed": seed, "box": box}


def config(name: str, seed: int = DEFAULT_SEED) -> dict:
    """The ``run_robust_experiment`` config of one workload (no out_dir)."""
    if name == "desk":
        return {"case": "i", "family": _mixtures(5, 256, _UNIT_1D, seed),
                "target": {"name": "sin_product", "dim": 1},
                "epsilon": EPSILON, "activation": "sigmoid"}
    if name == "mid":
        return {"case": "i", "family": _mixtures(20, 4096, _UNIT_2D, seed),
                "target": {"name": "sin_product", "dim": 2},
                "epsilon": EPSILON, "activation": "sigmoid"}
    if name == "narrow":
        return {"case": "ii", "family": _mixtures(10, 2048, _UNIT_2D, seed),
                "target": {"name": "sin_product", "dim": 2},
                "epsilon": EPSILON, "activation": "relu"}
    if name == "certify":
        return {"case": "iii", "family": _mixtures(64, 512, _UNIT_1D, seed),
                "target": {"name": "gaussian_blob", "dim": 1},
                "epsilon": EPSILON, "widths": [16], "seeds": [0],
                "psi_candidates": [{"kind": "entropy"}]}
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def family_seeds(name: str, seed: int = DEFAULT_SEED) -> list:
    return [seed + FAMILY_STRIDE * j for j in range(FAMILIES[name])]


def schedule_length(name: str) -> int:
    """Rows ``curve.csv`` must hold: the whole schedule, since nothing beats epsilon."""
    return 1 if name == "certify" else 15


def panel_seeds(name: str) -> list:
    return family_seeds(name)[:PANEL]
