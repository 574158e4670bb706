"""Batch entry point: norm | conjugate | construct | fit | robust.

Every subcommand is deterministic: fixed seeds and inputs produce identical
bytes.  Exit codes: 0 success, 2 malformed input or validation failure,
3 a mathematical hypothesis the run relies on does not hold (the message
names the hypothesis).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fit as fitmod
from . import net as netmod
from . import robust as robustmod
from . import serialize
from .box import Box
from .errors import HypothesisViolation, OrliczError, ValidationError, _parsed
from .measure import DiscreteMeasure
from .orlicz import FunctionTable, gauge_norm
from .young import YoungFunction, complementary, entropy, exp_minus_linear, power


def parse_young_spec(spec: str):
    parts = spec.split(":")
    name = parts[0]
    if name == "power":
        if len(parts) == 2:
            return power(_parsed("p", float, parts[1]))
        if len(parts) == 3:
            return power(_parsed("p", float, parts[1]), _parsed("scale", float, parts[2]))
        raise ValidationError("power spec is power:P or power:P:SCALE")
    if name == "exp_minus_linear" and len(parts) == 1:
        return exp_minus_linear()
    if name == "entropy" and len(parts) == 1:
        return entropy()
    if name == "tabulated" and len(parts) == 2:
        return YoungFunction.from_json_dict(_load_json(parts[1]))
    raise ValidationError(f"cannot parse Young function spec {spec!r}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError("grid spec is LO:HI:COUNT")
    return _parsed("grid", lambda p: (float(p[0]), float(p[1]), int(p[2])), parts)


def _parse_int_list(spec: str):
    try:
        values = [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError:
        values = []
    if not values:
        raise ValidationError(f"expected comma-separated integers, got {spec!r}")
    return values


def emit(report, format: str, path=None) -> None:
    """Write a JSON object or a (header, rows) CSV pair deterministically."""
    text = serialize.json_text(report) if format == "json" else serialize.csv_text(*report)
    if path is None:
        sys.stdout.write(text)
    else:
        serialize.write_bytes(path, text)


def _cmd_norm(args) -> int:
    phi = parse_young_spec(args.phi)
    mu = DiscreteMeasure.from_json_dict(_load_json(args.measure))
    table = FunctionTable.from_json_dict(_load_json(args.f))
    result = gauge_norm(phi, mu, table, tol=args.tol, norm_choice=args.norm_choice)
    emit((("phi_kind", "measure_id", "norm_value", "modular_at_value", "iterations"),
          [(args.phi, args.measure, result.value, result.modular_at_value,
            result.iterations)]), "csv", args.out)
    return 0


def _cmd_conjugate(args) -> int:
    phi = parse_young_spec(args.phi)
    grid = _parse_grid(args.grid) if args.grid else (1e-2, 1e2, 1201)
    psi = complementary(phi, grid_spec=grid, numeric=True)
    emit(psi.to_json_dict(), "json", args.out)
    return 0


def _structural_report(net) -> dict:
    return {"network": net.to_json_dict(),
            "hidden_widths": list(net.hidden_widths),
            "layer_count": len(net.layers),
            "input_dim": net.input_dim,
            "output_dim": net.output_dim}


def _cmd_construct(args) -> int:
    what = args.what
    if what == "identity":
        net = netmod.identity_gadget(args.offset)
    elif what == "max":
        net = netmod.max_gadget()
    elif what == "min":
        net = netmod.min_gadget()
    elif what == "bump":
        if args.a is None or args.b is None:
            raise ValidationError("bump needs --a and --b")
        net = netmod.bump_1d(args.a, args.b, args.delta)
    elif what == "box":
        if args.box is None:
            raise ValidationError("box indicator needs --box")
        net = netmod.box_indicator(Box.from_json_dict(_load_json(args.box)), args.delta)
    elif what in ("register", "clip"):
        if args.net is None or args.box is None:
            raise ValidationError(f"{what} needs --net and --box")
        shallow = netmod.Network.from_json_dict(_load_json(args.net))
        box = Box.from_json_dict(_load_json(args.box))
        reg = netmod.to_register_form(shallow, box)
        if what == "clip":
            if args.inner_box is None:
                raise ValidationError("clip needs --inner-box")
            if not isinstance(reg, netmod.RegisterNetwork):
                raise ValidationError("clip needs a network with a hidden layer")
            J = Box.from_json_dict(_load_json(args.inner_box))
            reg = netmod.clip_and_localize(reg, J, args.delta,
                                           args.clip_low, args.clip_high)
            X = np.vstack([0.5 * (J.lo + J.hi), J.lo, J.hi])
            want = np.clip(shallow.evaluate_batch(X), args.clip_low, args.clip_high)
            netmod._check_agreement(reg.network.evaluate_batch(X), want,
                                    "the clipped network departs from the clip of --net"
                                    " at the centre and corners of --inner-box")
        net = reg.network if isinstance(reg, netmod.RegisterNetwork) else reg
    else:
        raise ValidationError(f"unknown construction {what!r}")
    emit(_structural_report(net), "json", args.out)
    return 0


def _cmd_fit(args) -> int:
    target = fitmod.make_target({"name": args.target, "dim": args.dim})
    mu = DiscreteMeasure.from_json_dict(_load_json(args.measure))
    phi = parse_young_spec(args.phi)
    rows = robustmod.approximation_curve(
        target, mu, phi, _parse_int_list(args.widths),
        activation=args.activation, seeds=_parse_int_list(args.seeds),
        ridge=args.ridge)
    emit(robustmod.curve_csv_rows(rows), "csv", args.out)
    return 0


def _cmd_robust(args) -> int:
    config = _load_json(args.config)
    result = robustmod.run_robust_experiment(config, out_dir=args.out_dir)
    status = "success" if result.success else "schedule exhausted"
    sys.stdout.write(
        f"{status}: sup_l1={serialize.format_float(result.report.sup_l1)} "
        f"(width {result.chosen_width}, seed {result.chosen_seed}); "
        f"report at {result.paths['report']}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-uat",
        description="gauge norms, Young conjugates, ReLU constructions, "
                    "and robust approximation runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="gauge norm of a tabulated function")
    p.add_argument("--phi", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--norm-choice", default="euclidean", choices=("euclidean", "max"))
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_norm)

    p = sub.add_parser("conjugate", help="numeric complementary Young function")
    p.add_argument("--phi", required=True)
    p.add_argument("--grid", default=None, help="LO:HI:COUNT")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_conjugate)

    p = sub.add_parser("construct", help="exact ReLU constructions")
    p.add_argument("--what", required=True,
                   choices=("identity", "max", "min", "bump", "box", "register", "clip"))
    p.add_argument("--offset", type=float, default=1.0)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--box", default=None)
    p.add_argument("--net", default=None)
    p.add_argument("--inner-box", default=None)
    p.add_argument("--clip-low", type=float, default=-1.0)
    p.add_argument("--clip-high", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("fit", help="error-vs-width curve for a named target")
    p.add_argument("--target", required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--measure", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--widths", default="8,16,32,64")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--activation", default="relu", choices=("relu", "sigmoid", "tanh"))
    p.add_argument("--ridge", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_fit)

    p = sub.add_parser("robust", help="run a robust approximation experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(run=_cmd_robust)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except HypothesisViolation as exc:
        sys.stderr.write(f"{exc}\n")
        return 3
    except (OrliczError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
