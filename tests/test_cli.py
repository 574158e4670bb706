"""Command line surface: parsing, output formats, exit codes."""
import argparse
import contextlib
import copy
import io
import json
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orlicz_uat
from orlicz_uat.cli import build_parser, dispatch, parse_young_spec
from orlicz_uat.errors import ValidationError


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def two_point(tmp_path):
    measure = write_json(tmp_path / "mu.json",
                         {"dim": 1, "points": [[0.0], [1.0]], "weights": [0.5, 0.5]})
    table = write_json(tmp_path / "f.json", {"values": [[1.0], [3.0]]})
    return measure, table


def test_parse_young_spec():
    assert parse_young_spec("power:2").p == 2.0
    phi = parse_young_spec("power:2:0.5")
    assert phi.p == 2.0 and phi.scale == 0.5
    assert parse_young_spec("entropy").kind == "entropy"
    assert parse_young_spec("exp_minus_linear").kind == "exp_minus_linear"
    with pytest.raises(ValidationError):
        parse_young_spec("power")
    with pytest.raises(ValidationError):
        parse_young_spec("weird:1")


def test_norm_command_csv(two_point, capsys):
    measure, table = two_point
    code = dispatch(["norm", "--phi", "power:2", "--measure", measure, "--f", table])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "phi_kind,measure_id,norm_value,modular_at_value,iterations"
    cells = lines[1].split(",")
    assert cells[0] == "power:2"
    assert abs(float(cells[2]) - np.sqrt(5.0)) <= 1e-9
    assert float(cells[3]) <= 1.0


def test_norm_command_writes_file(two_point, tmp_path, capsys):
    measure, table = two_point
    out_file = tmp_path / "norm.csv"
    code = dispatch(["norm", "--phi", "power:2", "--measure", measure,
                     "--f", table, "--out", str(out_file)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_text().startswith("phi_kind,")


def test_norm_command_missing_file(tmp_path, capsys):
    table = write_json(tmp_path / "f.json", {"values": [[1.0]]})
    code = dispatch(["norm", "--phi", "power:2",
                     "--measure", str(tmp_path / "absent.json"), "--f", table])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_norm_command_bad_phi(two_point, capsys):
    measure, table = two_point
    code = dispatch(["norm", "--phi", "power:0.5", "--measure", measure, "--f", table])
    assert code == 2


def test_conjugate_command(capsys):
    code = dispatch(["conjugate", "--phi", "power:2:0.5"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "tabulated"
    grid = np.array(obj["grid"])
    values = np.array(obj["values"])
    # numeric conjugate of x^2/2 is y^2/2 at the grid nodes
    node = np.argmin(np.abs(grid - 1.0))
    assert abs(grid[node] - 1.0) <= 1e-12
    assert abs(values[node] - 0.5) <= 1e-6


def test_conjugate_command_custom_grid(capsys):
    code = dispatch(["conjugate", "--phi", "power:3:0.3333333333333333",
                     "--grid", "0.1:10:64"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    # the origin node is prepended to the requested 64 construction nodes
    grid = np.array(obj["grid"])[1:]
    values = np.array(obj["values"])[1:]
    assert grid.size == 64
    want = (np.abs(grid) ** 1.5) / 1.5
    assert float(np.max(np.abs(values - want) / np.maximum(1.0, want))) <= 1e-6


def test_conjugate_p1_exit_code(capsys):
    code = dispatch(["conjugate", "--phi", "power:1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_construct_identity_and_bump(capsys):
    code = dispatch(["construct", "--what", "identity", "--offset", "10"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["layer_count"] == 2
    assert obj["input_dim"] == 1 and obj["output_dim"] == 1

    code = dispatch(["construct", "--what", "bump", "--a", "0", "--b", "1",
                     "--delta", "0.5"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["hidden_widths"] == [4]


def test_construct_box_and_register(tmp_path, capsys):
    code = dispatch(["construct", "--what", "box",
                     "--box", write_json(tmp_path / "J.json",
                                         {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}),
                     "--delta", "0.5"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["input_dim"] == 2 and obj["output_dim"] == 1

    net = {"input_dim": 1,
           "layers": [{"A": [[1.0], [-1.0]], "b": [0.0, 0.0], "act": "relu"},
                      {"A": [[1.0, -1.0]], "b": [0.0], "act": "none"}]}
    code = dispatch(["construct", "--what", "register",
                     "--net", write_json(tmp_path / "net.json", net),
                     "--box", write_json(tmp_path / "B.json",
                                         {"lo": [-2.0], "hi": [2.0]})])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert all(w == 3 for w in obj["hidden_widths"])


def test_construct_clip(tmp_path, capsys):
    net = {"input_dim": 1,
           "layers": [{"A": [[1.0]], "b": [0.0], "act": "relu"},
                      {"A": [[1.0]], "b": [0.0], "act": "none"}]}
    code = dispatch(["construct", "--what", "clip",
                     "--net", write_json(tmp_path / "net.json", net),
                     "--box", write_json(tmp_path / "B.json",
                                         {"lo": [-3.0], "hi": [3.0]}),
                     "--inner-box", write_json(tmp_path / "J.json",
                                               {"lo": [0.0], "hi": [1.0]}),
                     "--delta", "0.25", "--clip-low", "-1", "--clip-high", "2"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert all(w == 3 for w in obj["hidden_widths"])


def test_construct_requires_flags(capsys):
    code = dispatch(["construct", "--what", "bump"])
    assert code == 2


def test_fit_command(tmp_path, capsys):
    measure = write_json(
        tmp_path / "mu.json",
        {"dim": 1,
         "points": [[x] for x in np.linspace(0.0, 1.0, 32)],
         "weights": [1.0 / 32] * 32})
    code = dispatch(["fit", "--target", "sin_product", "--measure", measure,
                     "--phi", "power:2", "--widths", "4,8", "--seeds", "0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "width,seed,gauge_error,l1_error,fit_millis"
    assert len(lines) == 3
    assert all(line.endswith(",0") for line in lines[1:])


def test_robust_command(tmp_path, capsys):
    config = {
        "case": "i",
        "family": {"kind": "mixtures", "count": 2, "points": 64, "seed": 7,
                   "box": {"lo": [0.0], "hi": [1.0]}},
        "target": {"name": "sin_product", "dim": 1},
        "epsilon": 0.05,
        "widths": [8, 16],
        "seeds": 2,
    }
    code = dispatch(["robust", "--config", write_json(tmp_path / "cfg.json", config),
                     "--out-dir", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("success")
    assert (tmp_path / "run" / "report.json").exists()
    assert (tmp_path / "run" / "curve.csv").exists()
    assert (tmp_path / "run" / "network.json").exists()


def test_robust_command_hypothesis_exit_code(tmp_path, capsys):
    config = {
        "case": "i",
        "family": {"kind": "mixtures", "count": 1, "points": 16, "seed": 1,
                   "box": {"lo": [0.0], "hi": [1.0]}},
        "target": {"name": "sin_product", "dim": 1},
        "epsilon": 0.5,
        "widths": [4],
        "seeds": 1,
        "activation": "relu",
    }
    code = dispatch(["robust", "--config", write_json(tmp_path / "cfg.json", config),
                     "--out-dir", str(tmp_path / "run")])
    assert code == 3
    assert "bounded activation" in capsys.readouterr().err


_UNIT = {"lo": [0.0], "hi": [1.0]}
_FUZZ_BASE = {
    "family": {"kind": "samplers", "points": 12, "seed": 5, "box": _UNIT,
               "samplers": ["uniform", {"name": "mixture", "components": [
                   {"weight": 1.0, "mean": [0.5], "std": [0.2]}]}]},
    "target": {"name": "sin_product", "dim": 1, "frequency": 1.0},
    "epsilon": 0.5, "widths": [2], "seeds": [0], "ridge": 1e-8,
    "psi_candidates": [{"kind": "power", "p": 2.0, "scale": 0.5}],
}
_FUZZ_CONFIGS = {
    "i": dict(_FUZZ_BASE, case="i", activation="sigmoid"),
    "ii": dict(_FUZZ_BASE, case="ii", activation="relu", delta=0.05, clip_range=[-1.0, 1.0]),
    "iii": dict(_FUZZ_BASE, case="iii", compact_box=_UNIT),
    "iv": dict(_FUZZ_BASE, case="iv"),
}
_DELETE = object()
_JUNK = (_DELETE, "abc", "", -1, 0, 3, 1.5, None, True, [], ["x"], [1.5], {}, {"x": 1},
         float("nan"), float("inf"))


def _key_paths(obj, prefix=()):
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


def _mutate(draw, obj, times):
    obj = copy.deepcopy(obj)
    for _ in range(times):
        paths = list(_key_paths(obj))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = obj
        for step in parents:
            node = node[step]
        value = draw(st.sampled_from(_JUNK))
        if value is _DELETE:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    return obj


@st.composite
def _mutated_configs(draw):
    base = _FUZZ_CONFIGS[draw(st.sampled_from(sorted(_FUZZ_CONFIGS)))]
    return _mutate(draw, base, draw(st.integers(1, 2)))


def _cli(argv, files=()):
    """(exit code, stderr) of one CLI call in a scratch directory.

    ``files`` are (name, JSON object) pairs written there first; ``{dir}``
    in an argument names that directory.  Warnings are errors, so a numpy
    warning that would reach a user fails the caller.
    """
    code, _, err = _cli_output(argv, files)
    return code, err


def _cli_output(argv, files=()):
    """(exit code, stdout, stderr) of one CLI call, as ``_cli`` makes it."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files:
            Path(tmp, name).write_text(json.dumps(obj))
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = dispatch([arg.replace("{dir}", tmp) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(_mutated_configs())
def test_robust_config_mutations_exit_cleanly(cfg):
    # whatever a config holds, the CLI answers with an exit code and at most
    # one line on stderr, never a traceback
    code, err = _cli(["robust", "--config", "{dir}/cfg.json", "--out-dir", "{dir}/run"],
                     [("cfg.json", cfg)])
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1


def test_robust_non_finite_target_exits_without_warnings():
    cfg = dict(_FUZZ_CONFIGS["i"], target={"name": "sin_product", "dim": 1, "frequency": 1e308})
    code, err = _cli(["robust", "--config", "{dir}/cfg.json", "--out-dir", "{dir}/run"],
                     [("cfg.json", cfg)])
    assert (code, err) == (2, "error: target produced non-finite values\n")


@pytest.mark.parametrize("case, hi, expected", [
    ("i", 1e200, (0, "")),
    ("ii", 1e300, (2, "error: non-finite normal equations\n")),
])
def test_robust_on_a_huge_box_exits_without_warnings(case, hi, expected):
    # sigmoid features of points near 1e200 overflow exp(-z) to the exact
    # limit 0; relu features near 1e300 overflow the Gram matrix, which the
    # fit refuses by name
    cfg = {"case": case, "family": {"kind": "mixtures", "count": 2, "points": 16, "seed": 7,
                                    "box": {"lo": [0.0], "hi": [hi]}},
           "target": {"name": "sin_product", "dim": 1}, "epsilon": 0.5, "widths": [8],
           "seeds": 1, "activation": "sigmoid" if case == "i" else "relu"}
    code, err = _cli(["robust", "--config", "{dir}/cfg.json", "--out-dir", "{dir}/run"],
                     [("cfg.json", cfg)])
    assert (code, err) == expected


_PHI_SPECS = ("power:2", "power:1.5:0.5", "power:x", "power:", "power:2:x", "power:0.5",
              "power:inf", "power:nan", "power:1e400", "power:2:0", "power:2:-1", "entropy",
              "exp_minus_linear", "entropy:1", "tabulated:{dir}/phi.json",
              "tabulated:{dir}/absent.json", "weird", "")
_MEASURE = {"dim": 1, "points": [[0.0], [1.0], [2.5]], "weights": [0.25, 0.5, 0.25]}
_TABLE = {"values": [[1.0], [-3.0], [0.5]]}
_TABULATED = {"kind": "tabulated", "grid": [0.0, 1.0, 2.0], "values": [0.0, 0.5, 2.0]}
_NUMBER = st.sampled_from(("0", "1", "-1", "0.25", "3", "1e308", "-1e308", "inf", "-inf",
                           "nan", "1e-300"))


@st.composite
def _mutated(draw, obj):
    return _mutate(draw, obj, draw(st.integers(0, 2)))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_PHI_SPECS) | st.text(max_size=12), _NUMBER,
       _mutated(_MEASURE), _mutated(_TABLE), _mutated(_TABULATED))
def test_norm_inputs_exit_cleanly(phi, tol, measure, table, tabulated):
    files = [("mu.json", measure), ("f.json", table), ("phi.json", tabulated)]
    code, err = _cli(["norm", f"--phi={phi}", "--measure", "{dir}/mu.json",
                      "--f", "{dir}/f.json", f"--tol={tol}"], files)
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1


@pytest.mark.parametrize("tol, code", [("0", 2), ("-1", 2), ("nan", 2), ("inf", 2),
                                       ("1e-17", 0)])
def test_norm_tolerance_range(tol, code):
    got, err = _cli(["norm", "--phi=power:3", "--measure", "{dir}/mu.json",
                     "--f", "{dir}/f.json", f"--tol={tol}"],
                    [("mu.json", _MEASURE), ("f.json", _TABLE)])
    assert got == code
    assert err.count("\n") == (code != 0)


@pytest.mark.parametrize("phi", ["entropy", "exp_minus_linear", "power:2"])
@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_norm_far_out_of_scale_is_homogeneous(phi, scale):
    # the gauge norm is positively homogeneous, and the solve works in units
    # of the table's own scale, so c * f has the norm c * N(f) at any c
    mu = {"dim": 1, "points": [[0.0], [1.0], [2.0], [3.0]], "weights": [0.25] * 4}

    def norm(c):
        table = {"values": [[c * k] for k in (1.0, 2.0, 3.0, 4.0)]}
        code, out, err = _cli_output(["norm", f"--phi={phi}", "--measure", "{dir}/mu.json",
                                      "--f", "{dir}/f.json"], [("mu.json", mu), ("f.json", table)])
        assert (code, err) == (0, "")
        return float(out.splitlines()[1].split(",")[2])

    assert norm(scale) == pytest.approx(scale * norm(1.0), rel=1e-9, abs=0.0)


_GRID_SPECS = ("a:b:c", "1:2", "0.01:100:5", "1:0.5:5", "0:1:5", "-1:1:5", "1:inf:5",
               "nan:1:5", "0.1:1:1", "0.1:1:x", "0.1:1:3.5", "1e-300:1:4", "0.01:1e300:4", "")
_GRID_BOUND = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(("x", "-0"))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_PHI_SPECS) | st.text(max_size=12),
       st.sampled_from(_GRID_SPECS) | st.builds("{}:{}:{}".format, _GRID_BOUND, _GRID_BOUND,
                                                st.integers(-2, 40)),
       st.data())
def test_conjugate_inputs_exit_cleanly(phi, grid, data):
    tabulated = _mutate(data.draw, _TABULATED, data.draw(st.integers(0, 2)))
    code, err = _cli(["conjugate", f"--phi={phi}", f"--grid={grid}"], [("phi.json", tabulated)])
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1


_NET = {"input_dim": 1,
        "layers": [{"A": [[1.0], [-1.0]], "b": [0.0, 0.5], "act": "relu"},
                   {"A": [[1.0, -1.0]], "b": [0.25], "act": "none"}]}
_BOX = {"lo": [-2.0], "hi": [2.0]}
_INNER = {"lo": [0.0], "hi": [1.0]}
_CONSTRUCTIONS = ("identity", "max", "min", "bump", "box", "register", "clip")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_CONSTRUCTIONS), st.lists(st.tuples(
    st.sampled_from(("--offset", "--a", "--b", "--delta", "--clip-low", "--clip-high")),
    _NUMBER), max_size=4), _mutated(_NET), _mutated(_BOX), _mutated(_INNER))
@example("clip", [("--clip-low", "-1e308")], _NET, _BOX, _INNER)
def test_construct_inputs_exit_cleanly(what, numbers, net, box, inner):
    files = [("net.json", net), ("box.json", box), ("inner.json", inner)]
    argv = ["construct", "--what", what, "--net", "{dir}/net.json", "--box", "{dir}/box.json",
            "--inner-box", "{dir}/inner.json", "--a", "0", "--b", "1"]
    code, err = _cli(argv + [f"{flag}={value}" for flag, value in numbers], files)
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1


@pytest.mark.parametrize("bound", ["--clip-low=-1e308", "--clip-high=1e308", "--clip-low=-inf"])
def test_construct_clip_refuses_a_bound_past_the_double_range(bound):
    code, err = _cli(["construct", "--what", "clip", "--net", "{dir}/net.json", "--box",
                      "{dir}/box.json", "--inner-box", "{dir}/inner.json", bound],
                     [("net.json", _NET), ("box.json", _BOX), ("inner.json", _INNER)])
    assert code == 2 and err.count("\n") == 1, err


def test_construct_clip_refuses_a_network_off_the_clip():
    # clipped to [-1e20, 1], the network rounds at the scale of the clip range:
    # -6896.8 at x = 0, 0.25 and 0.5, where the clip is -0.25, 0.25 and 0.75
    code, err = _cli(["construct", "--what", "clip", "--net", "{dir}/net.json", "--box",
                      "{dir}/box.json", "--inner-box", "{dir}/inner.json",
                      "--clip-low=-1e20", "--clip-high", "1"],
                     [("net.json", _NET), ("box.json", _BOX), ("inner.json", _INNER)])
    assert code == 2
    assert err.startswith("error: the clipped network departs from the clip of --net") and \
        err.count("\n") == 1, err


_FIT_MEASURE = {"dim": 1, "points": [[0.0], [0.25], [0.5], [1.0]],
                "weights": [0.25, 0.25, 0.25, 0.25]}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("sin_product", "gaussian_blob", "smooth_step", "constant", "weird")),
       st.sampled_from(("1", "2", "0", "-1")),
       st.sampled_from(("power:2", "power:1.5", "entropy", "exp_minus_linear", "power:x")),
       st.sampled_from(("2", "2,4", "0", "-1", "a", "", "1,,3")),
       st.sampled_from(("0", "0,1", "-1", "x", "")),
       st.sampled_from(("relu", "sigmoid", "tanh")),
       _NUMBER, st.data())
def test_fit_inputs_exit_cleanly(target, dim, phi, widths, seeds, activation, ridge, data):
    measure = _mutate(data.draw, _FIT_MEASURE, data.draw(st.integers(0, 2)))
    code, err = _cli(["fit", "--target", target, "--dim", dim, "--measure", "{dir}/mu.json",
                      "--phi", phi, "--widths", widths, "--seeds", seeds,
                      "--activation", activation, f"--ridge={ridge}"], [("mu.json", measure)])
    assert code in (0, 2, 3)
    assert err.count("\n") <= 1


@pytest.mark.parametrize("flag", ["--widths=", "--seeds="])
def test_fit_refuses_an_empty_list(flag):
    code, err = _cli(["fit", "--target", "sin_product", "--measure", "{dir}/mu.json",
                      "--phi", "power:2", flag], [("mu.json", _FIT_MEASURE)])
    assert code == 2 and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, named", [
    (["norm", "--phi", "power:x", "--measure", "{dir}/mu.json", "--f", "{dir}/f.json"], "p"),
    (["conjugate", "--phi", "power:2", "--grid", "a:b:c"], "grid"),
    (["norm", "--phi", "power:2", "--measure", "{dir}/bad_mu.json", "--f", "{dir}/f.json"],
     "dim"),
    (["norm", "--phi", "power:2", "--measure", "{dir}/mu.json", "--f", "{dir}/bad_f.json"],
     "values"),
    (["fit", "--target", "sin_product", "--measure", "{dir}/mu.json", "--phi", "power:2",
      "--widths", "2", "--seeds=-1"], "seed"),
    (["construct", "--what", "register", "--net", "{dir}/bad_A.json", "--box", "{dir}/B.json"],
     "A"),
    (["construct", "--what", "register", "--net", "{dir}/bad_dim.json", "--box",
      "{dir}/B.json"], "input_dim"),
    (["construct", "--what", "register", "--net", "{dir}/bad_layers.json", "--box",
      "{dir}/B.json"], "layers"),
])
def test_cli_inputs_name_the_bad_value(argv, named):
    hidden, readout = _NET["layers"]
    files = [("mu.json", _MEASURE), ("f.json", _TABLE),
             ("bad_mu.json", dict(_MEASURE, dim="x")), ("bad_f.json", {"values": "abc"}),
             ("B.json", _BOX), ("bad_A.json", dict(_NET, layers=[dict(hidden, A="abc"), readout])),
             ("bad_dim.json", dict(_NET, input_dim="x")), ("bad_layers.json", dict(_NET, layers=5))]
    code, err = _cli(argv, files)
    assert code == 2
    assert err.startswith(f"error: bad value for {named}: ") and err.count("\n") == 1, err


_NO_MEAN = dict(_FUZZ_BASE["family"], samplers=[
    {"name": "mixture", "components": [{"weight": 1.0, "std": [0.2]}]}])
_INF_MEAN = dict(_FUZZ_BASE["family"], samplers=[
    {"name": "mixture", "components": [{"weight": 1.0, "mean": float("inf"), "std": 0.2}]}])


@pytest.mark.parametrize("key, value, named", [
    ("epsilon", "abc", "epsilon"),
    ("widths", ["a"], "widths"),
    ("widths", 5, "widths"),
    ("seeds", "x", "seeds"),
    ("seeds", ["x"], "seeds"),
    ("ridge", "x", "ridge"),
    ("psi_candidates", [{"kind": "power", "p": "x"}], "p"),
    ("psi_candidates", 3, "psi_candidates"),
    ("family", {"kind": "mixtures", "count": "x", "points": 12, "seed": 5, "box": _UNIT},
     "count"),
    ("family", _NO_MEAN, "components"),
    ("family", _INF_MEAN, "mean"),
    ("delta", 0.0, "delta"),
    ("delta", -1.0, "delta"),
    ("activation", "softmax", "activation"),
    ("activation", 5, "activation"),
])
def test_robust_config_names_the_bad_key(tmp_path, capsys, key, value, named):
    cfg = dict(_FUZZ_CONFIGS["i"], **{key: value})
    code = dispatch(["robust", "--config", write_json(tmp_path / "cfg.json", cfg),
                     "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: bad value for {named}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("compact_box", [
    {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]},  # numpy cannot broadcast it
    {"lo": [0.0], "hi": [0.5]},  # numpy broadcasts it to both coordinates
])
def test_robust_refuses_a_compact_box_of_another_dimension(compact_box):
    cfg = {"case": "iii", "family": {"kind": "mixtures", "count": 2, "points": 16, "seed": 7,
                                     "box": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}},
           "target": {"name": "sin_product", "dim": 2}, "epsilon": 0.5, "widths": [4],
           "seeds": 1, "compact_box": compact_box}
    code, err = _cli(["robust", "--config", "{dir}/cfg.json", "--out-dir", "{dir}/run"],
                     [("cfg.json", cfg)])
    assert (code, err) == (2, "error: compact_box dimension disagrees with the family\n")


def test_readme_usage_line_names_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (usage,) = re.findall(r"^orlicz-uat \{([\w,]+)\} \.\.\.$", readme, flags=re.M)
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert usage.split(",") == list(sub.choices)


def test_the_cli_imports_without_scipy():
    # numpy is the only dependency; a fresh interpreter shows what the import pulls in
    src = str(Path(orlicz_uat.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import orlicz_uat.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True).stdout
    assert out == "[]\n"
