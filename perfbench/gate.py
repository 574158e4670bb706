"""Correctness gate applied to the artifacts of every benchmark run.

The member errors are recomputed with plain numpy from ``network.json`` and
the target's closed form, so a run that writes a wrong report, or a network
that does not reproduce the reported errors, fails even when the program's
own checks pass.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from orlicz_uat.net import Network

MEMBER_RTOL = 1e-9
ARTIFACTS = ("report.json", "curve.csv", "network.json")

_ACTIVATIONS = {
    "relu": lambda z: np.maximum(z, 0.0),
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "tanh": np.tanh,
    "identity": lambda z: z,
    "none": lambda z: z,
}


class GateError(Exception):
    """A run's artifacts failed a correctness check."""


@dataclass(frozen=True)
class Outcome:
    sup_l1: float
    holder_rhs: float
    digest: str


def target_values(spec: dict, X: np.ndarray) -> np.ndarray:
    """The workload targets in closed form, independent of ``orlicz_uat.fit``."""
    params = dict(spec)
    name = params.pop("name")
    dim = int(params.pop("dim", 1))
    if name == "sin_product":
        freq = float(params.pop("frequency", 1.0))
        out = np.prod(np.sin(2.0 * np.pi * freq * X), axis=1)
    elif name == "gaussian_blob":
        center = np.asarray(params.pop("center", np.full(dim, 0.5)), dtype=np.float64)
        sigma = float(params.pop("sigma", 0.25))
        out = np.exp(-np.sum((X - center) ** 2, axis=1) / (2.0 * sigma * sigma))
    else:
        raise GateError(f"the gate has no closed form for target {name!r}")
    if params:
        raise GateError(f"the gate does not know target parameters {sorted(params)}")
    return out.reshape(-1, 1)


def member_errors(network: dict, members, target: dict) -> np.ndarray:
    """L1 error of the network against the target on each member measure."""
    layers = Network.from_json_dict(network).layers
    per = []
    for nu in members:
        z = nu.points
        for lay in layers:
            z = _ACTIVATIONS[lay.act](z @ lay.A.T + lay.b)
        resid = target_values(target, nu.points) - z
        per.append(float(np.sum(np.linalg.norm(resid, axis=1) * nu.weights)))
    return np.array(per)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(b), 1e-300)


def check(out_dir, members, config: dict, curve_rows: int,
          reference: dict | None = None, reference_rtol: float = 0.0) -> Outcome:
    """Check one run's artifacts; raise GateError on the first failure.

    ``reference`` holds the expected ``sup_l1`` and ``holder_rhs`` for this
    family, when one is recorded; they must agree to ``reference_rtol``.
    """
    out = Path(out_dir)
    blobs = {name: (out / name).read_bytes() for name in ARTIFACTS}
    report = json.loads(blobs["report.json"])
    per = [float(v) for v in report["per_measure_l1"]]
    if len(per) != len(members):
        raise GateError(f"report has {len(per)} member errors for {len(members)} members")
    recomputed = member_errors(json.loads(blobs["network.json"]), members, config["target"])
    for i, (got, want) in enumerate(zip(per, recomputed)):
        if not _close(got, want, MEMBER_RTOL):
            raise GateError(f"member {i}: report says {got!r}, recomputed {want!r}")
    sup_l1, rhs = float(report["sup_l1"]), float(report["holder_rhs"])
    if sup_l1 != max(per):
        raise GateError("sup_l1 is not the largest member error")
    if report["bound_holds"] is not True or not sup_l1 <= rhs:
        raise GateError(f"certificate fails: sup_l1={sup_l1!r}, holder_rhs={rhs!r}")
    rows = list(csv.reader(blobs["curve.csv"].decode("utf-8").splitlines()))
    if len(rows) - 1 != curve_rows:
        raise GateError(f"curve.csv has {len(rows) - 1} rows, expected {curve_rows}")
    if reference is not None:
        for key, got in (("sup_l1", sup_l1), ("holder_rhs", rhs)):
            if not _close(got, reference[key], reference_rtol):
                raise GateError(f"{key}={got!r} departs from the reference {reference[key]!r}")
    digest = hashlib.sha256(b"".join(blobs[name] for name in ARTIFACTS)).hexdigest()
    return Outcome(sup_l1, rhs, digest)
