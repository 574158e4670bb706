"""Feedforward networks and exact ReLU constructions.

Plain networks are stacks of affine layers with an activation on every layer
except the last.  On top of these the module builds the classical exact
gadgets

    max(x, y) = relu(x - y) + y
    min(x, y) = x - relu(x - y)
    identity on [-N, inf) = relu(x + N) - N

a one-dimensional trapezoid bump, box indicator profiles, and the register
form: a deep narrow rewrite of a shallow ReLU network whose every hidden
layer has width exactly n_in + n_out + 1.  Register networks reserve one
channel per input coordinate, one per output coordinate, and a single compute
channel; values are threaded through relu layers with identity gadgets whose
offsets come from interval arithmetic over a declared input box, so agreement
with the source network holds on that box.

clip_and_localize multiplies nothing: it appends layers computing the box
profile V (one on J, zero outside the delta-enlargement K) and replaces each
output g_j by

    G_j = -relu(-relu(g_j - c*V) + (C - c)*V) + C*V
        = min(max(g_j, c*V), C*V),

which equals the clip of g_j to [c, C] on J and vanishes identically outside
K, regardless of how the carried values degrade beyond the declared box.

A network evaluates its input in row blocks carried feature-major, as
(width x rows) arrays: a layer is one A @ Z and one bias add along the rows,
in place, so it holds one block's activations at a time.  The last block
takes the remainder, as BLAS rounds a product of a few columns with other
kernels, and a block is padded to a multiple of _ROW_PAD rows, as BLAS may
round a product's last rows with an edge kernel (OpenBLAS does past 1e6
multiply-adds).  So on one BLAS thread no row depends on the blocking.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .box import Box
from .errors import OrliczError, ValidationError, _frozen, _parsed

_HIDDEN_ACTS = ("relu", "sigmoid", "tanh", "identity")
_OUTPUT_ACT = "none"
_ROW_BLOCK = 4096  # rows per block of a network evaluation and of a feature cache's growth
_ROW_PAD = 64  # a multiple of the row unrolling of common BLAS kernels
# a written network may depart from the values it must reproduce by at most
# this fraction of their largest magnitude, at least 1
_AGREEMENT_TOL = 1e-9


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    """The activation of z, computed in z's own buffer."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "sigmoid":
        np.negative(z, out=z)
        with np.errstate(over="ignore"):  # exp(-z) = inf gives the exact limit 0
            np.exp(z, out=z)
        z += 1.0
        return np.divide(1.0, z, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    if name in ("identity", _OUTPUT_ACT):
        return z
    raise ValidationError(f"unknown activation {name!r}")


@dataclass(frozen=True, eq=False)
class Layer:
    A: np.ndarray
    b: np.ndarray
    act: str

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64).ravel()
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise ValidationError("layer matrix and bias shapes disagree")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValidationError("layer weights must be finite")
        if self.act not in _HIDDEN_ACTS and self.act != _OUTPUT_ACT:
            raise ValidationError(f"unknown activation {self.act!r}")
        object.__setattr__(self, "A", _frozen(np.ascontiguousarray(A), self.A))
        object.__setattr__(self, "b", _frozen(b, self.b))

    @property
    def out_dim(self) -> int:
        return self.A.shape[0]

    @property
    def in_dim(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True, eq=False)
class Network:
    layers: tuple

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValidationError("a network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValidationError("consecutive layer dimensions disagree")
        for lay in layers[:-1]:
            if lay.act not in _HIDDEN_ACTS:
                raise ValidationError("hidden layers need a real activation")
        if layers[-1].act != _OUTPUT_ACT:
            raise ValidationError("the final layer must be a plain affine readout")
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def hidden_widths(self) -> tuple:
        return tuple(lay.out_dim for lay in self.layers[:-1])

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.input_dim:
            raise ValidationError("input dimension mismatch")
        n = X.shape[0]
        out = np.empty((n, self.output_dim))
        stops = [*range(_ROW_BLOCK, n - _ROW_BLOCK + 1, _ROW_BLOCK), n]  # the last takes the rest
        for start, stop in zip([0, *stops], stops):
            rows = stop - start  # padded by repeating rows: no point the caller did not pass
            z = np.resize(X[start:stop], (-(-rows // _ROW_PAD) * _ROW_PAD, X.shape[1])).T
            for lay in self.layers:
                z = lay.A @ z
                z += lay.b[:, None]
                z = _apply_activation(lay.act, z)
            out[start:stop] = z[:, :rows].T
        return out

    def evaluate(self, x) -> np.ndarray:
        return self.evaluate_batch(np.asarray(x, dtype=np.float64).reshape(1, -1))[0]

    def to_json_dict(self) -> dict:
        return {"input_dim": self.input_dim,
                "layers": [{"A": lay.A.tolist(), "b": lay.b.tolist(), "act": lay.act}
                           for lay in self.layers]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Network":
        if not isinstance(obj, dict) or set(obj) != {"input_dim", "layers"}:
            raise ValidationError("network object needs exactly input_dim and layers")
        def floats(v):
            return np.asarray(v, dtype=np.float64)
        layers = []
        for lay in _parsed("layers", list, obj["layers"]):
            if not isinstance(lay, dict) or set(lay) != {"A", "b", "act"}:
                raise ValidationError("layer object needs exactly A, b, act")
            layers.append(Layer(_parsed("A", floats, lay["A"]),
                                _parsed("b", floats, lay["b"]), lay["act"]))
        net = cls(tuple(layers))
        if net.input_dim != _parsed("input_dim", int, obj["input_dim"]):
            raise ValidationError("declared input_dim disagrees with the first layer")
        return net


def _check_agreement(net: Network, X, want, departure: str):
    """OrliczError, its message starting with departure, unless net matches want on X."""
    tol = _AGREEMENT_TOL * max(1.0, float(np.max(np.abs(want))))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite gap is refused
        gap = float(np.max(np.abs(net.evaluate_batch(X) - want)))
    if not gap <= tol:
        raise OrliczError(f"{departure} by {gap:.3g} (tolerance {tol:.3g})")


def zero_network(n_in: int, n_out: int) -> Network:
    return Network((Layer(np.zeros((n_out, n_in)), np.zeros(n_out), _OUTPUT_ACT),))


def identity_gadget(N: float) -> Network:
    """relu(x + N) - N; agrees with the identity on [-N, inf)."""
    if not (N > 0.0):
        raise ValidationError("identity gadget needs N > 0")
    return Network((Layer([[1.0]], [N], "relu"), Layer([[1.0]], [-N], _OUTPUT_ACT)))


def max_gadget() -> Network:
    hidden = Layer([[1.0, -1.0], [0.0, 1.0], [0.0, -1.0]], [0.0, 0.0, 0.0], "relu")
    out = Layer([[1.0, 1.0, -1.0]], [0.0], _OUTPUT_ACT)
    return Network((hidden, out))


def min_gadget() -> Network:
    hidden = Layer([[1.0, -1.0], [1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0, 0.0], "relu")
    out = Layer([[-1.0, 1.0, -1.0]], [0.0], _OUTPUT_ACT)
    return Network((hidden, out))


def bump_1d(a: float, b: float, delta: float) -> Network:
    """Trapezoid profile: one on [a, b], zero outside [a - delta, b + delta]."""
    if not (delta > 0.0) or a > b:
        raise ValidationError("bump needs a <= b and delta > 0")
    hidden = Layer([[1.0]] * 4, [delta - a, -a, -b, -b - delta], "relu")
    s = 1.0 / delta
    out = Layer([[s, -s, -s, s]], [0.0], _OUTPUT_ACT)
    return Network((hidden, out))


def box_indicator(J: Box, delta: float) -> Network:
    """min over coordinates of the per-coordinate trapezoid profiles."""
    if not (delta > 0.0):
        raise ValidationError("box indicator needs delta > 0")
    n = J.dim
    rows, consts = [], []
    for i in range(n):
        for shift in (J.lo[i] - delta, J.lo[i], J.hi[i], J.hi[i] + delta):
            row = np.zeros(n)
            row[i] = 1.0
            rows.append(row)
            consts.append(-shift)
    layers = [Layer(np.vstack(rows), np.array(consts), "relu")]
    s = 1.0 / delta
    A2 = np.zeros((n, 4 * n))
    for i in range(n):
        A2[i, 4 * i: 4 * i + 4] = (s, -s, -s, s)
    layers.append(Layer(A2, np.zeros(n), "relu"))
    # sem holds affine reads (row over current units, const) of the pending
    # nonnegative values [running min, remaining profiles]
    sem = [(np.eye(n)[i], 0.0) for i in range(n)]
    while len(sem) > 1:
        (m_row, m_c), (v_row, v_c) = sem[0], sem[1]
        unit_rows = [m_row, m_row - v_row] + [r for r, _ in sem[2:]]
        unit_consts = [m_c, m_c - v_c] + [c for _, c in sem[2:]]
        layers.append(Layer(np.vstack(unit_rows), np.array(unit_consts), "relu"))
        k = len(unit_rows)
        first = np.zeros(k)
        first[0], first[1] = 1.0, -1.0
        sem = [(first, 0.0)] + [(np.eye(k)[j], 0.0) for j in range(2, k)]
    m_row, m_c = sem[0]
    layers.append(Layer(m_row.reshape(1, -1), np.array([m_c]), _OUTPUT_ACT))
    return Network(tuple(layers))


@dataclass(frozen=True)
class RegisterLayout:
    input_registers: tuple
    output_registers: tuple
    compute_index: int
    width: int

    @classmethod
    def for_dims(cls, n_in: int, n_out: int) -> "RegisterLayout":
        if n_in < 1 or n_out < 1:
            raise ValidationError("register layout needs n_in >= 1 and n_out >= 1")
        return cls(tuple(range(n_in)), tuple(range(n_in, n_in + n_out)),
                   n_in + n_out, n_in + n_out + 1)


def _within_double_range(build):
    """ValidationError, not a wrong network, where interval bounds overflow.

    The bounds and carry offsets grow with the weights, the box and the clip range.
    """
    @functools.wraps(build)
    def guarded(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return build(*args, **kwargs)
        except FloatingPointError:
            raise ValidationError(f"{build.__name__} overflows double precision") from None
    return guarded


def _affine_bounds(row: np.ndarray, const: float, lo: np.ndarray, hi: np.ndarray):
    pos = np.maximum(row, 0.0)
    neg = np.minimum(row, 0.0)
    return (float(pos @ lo + neg @ hi + const), float(pos @ hi + neg @ lo + const))


class _RegisterBuilder:
    """Layer-by-layer extension of a fixed-width register network.

    Semantic state: one value per channel of the layout, recovered from the
    latest unit vector u as  s = M @ u + c.  Hidden units are always relu;
    identity carries add an interval-derived offset N so the pre-activation
    stays positive on the declared box.  A register that a layer neither
    reads nor zeroes keeps its value: unless it is identically zero, the
    layer carries it after its own units, in register order.
    """

    def __init__(self, reg: "RegisterNetwork"):
        self.layout = reg.layout
        self.box = reg.box
        self.W = reg.layout.width
        self.layers: list[Layer] = list(reg.network.layers[:-1])
        self.M = reg.read_M
        self.c = reg.read_c
        self.lo = reg.sem_lo
        self.hi = reg.sem_hi
        self._units = None

    def begin_layer(self):
        self._units = []
        self._reads = {}

    def _vec(self, coeffs: dict) -> np.ndarray:
        row = np.zeros(self.W)
        for slot, cv in coeffs.items():
            row[slot] = cv
        return row

    def unit(self, coeffs: dict, const: float = 0.0) -> int:
        self._units.append((self._vec(coeffs), float(const)))
        return len(self._units) - 1

    def read(self, slot: int, unit_coeffs: dict, const: float = 0.0):
        self._reads[slot] = (dict(unit_coeffs), float(const))

    def read_zero(self, slot: int):
        self._reads[slot] = ({}, 0.0)

    def carry(self, slot: int, coeffs: dict | None = None, const: float = 0.0):
        """Store coeffs . registers + const (default: the slot's own value) in slot.

        An identically zero value takes no unit: the slot is read as zero.
        """
        coeffs = {slot: 1.0} if coeffs is None else coeffs
        if const == 0.0 and not any(self.M[t].any() or self.c[t] != 0.0 for t in coeffs):
            self.read_zero(slot)
            return
        lo, _ = _affine_bounds(self._vec(coeffs), const, self.lo, self.hi)
        N = 1.0 + max(0.0, -lo)
        self.read(slot, {self.unit(coeffs, const + N): 1.0}, -N)

    def end_layer(self):
        W = self.W
        for slot in range(W):
            if slot not in self._reads:
                self.carry(slot)
        if len(self._units) > W:
            raise ValidationError("register layer exceeded its width budget")
        Csem = np.zeros((W, W))
        dsem = np.zeros(W)
        post_lo = np.zeros(W)
        post_hi = np.zeros(W)
        for j, (row, cv) in enumerate(self._units):
            Csem[j] = row
            dsem[j] = cv
            lo, hi = _affine_bounds(row, cv, self.lo, self.hi)
            post_lo[j] = max(lo, 0.0)
            post_hi[j] = max(hi, 0.0)
        A = Csem @ self.M
        b = Csem @ self.c + dsem
        self.layers.append(Layer(A, b, "relu"))
        M2 = np.zeros((W, W))
        c2 = np.zeros(W)
        lo2 = np.zeros(W)
        hi2 = np.zeros(W)
        for slot, (ucoeffs, const) in self._reads.items():
            M2[slot] = self._vec(ucoeffs)
            c2[slot] = const
            lo2[slot], hi2[slot] = _affine_bounds(M2[slot], const, post_lo, post_hi)
        self.M, self.c, self.lo, self.hi = M2, c2, lo2, hi2
        self._units = None

    def finalize(self) -> "RegisterNetwork":
        slots = list(self.layout.output_registers)
        proj = Layer(self.M[slots], self.c[slots], _OUTPUT_ACT)
        net = Network(tuple(self.layers) + (proj,))
        return RegisterNetwork(net, self.layout, self.box, self.M, self.c, self.lo, self.hi)


@dataclass(frozen=True, eq=False)
class RegisterNetwork:
    """A register-form network plus the bookkeeping needed to extend it."""

    network: Network
    layout: RegisterLayout
    box: Box
    read_M: np.ndarray = field(repr=False)
    read_c: np.ndarray = field(repr=False)
    sem_lo: np.ndarray = field(repr=False)
    sem_hi: np.ndarray = field(repr=False)


@_within_double_range
def to_register_form(shallow: Network, box: Box):
    """Rewrite a one-hidden-layer relu network at width n_in + n_out + 1.

    The rewrite processes one hidden feature per layer, accumulating readout
    contributions in the output registers, and ends with a projection.  It
    agrees with the source network on the declared box.  A purely affine
    network is returned unchanged.
    """
    if len(shallow.layers) == 1:
        return shallow
    if len(shallow.layers) != 2:
        raise ValidationError("register rewrite supports exactly one hidden layer")
    hid, out = shallow.layers
    if hid.act != "relu":
        raise ValidationError("register rewrite needs a relu hidden layer")
    n_in, n_out = shallow.input_dim, shallow.output_dim
    if box.dim != n_in:
        raise ValidationError("declared box dimension disagrees with the network")
    m = hid.out_dim
    if m == 0:
        return Network((Layer(np.zeros((n_out, n_in)), out.b, _OUTPUT_ACT),))
    W1, b1, b2 = hid.A, hid.b, out.b
    # column k: the readout weight of the feature in the compute register at layer k
    W2 = np.hstack([np.zeros((n_out, 1)), out.A])
    L = RegisterLayout.for_dims(n_in, n_out)
    comp = L.compute_index
    pad = np.zeros(L.width - n_in)
    empty = RegisterNetwork(zero_network(n_in, n_out), L, box, np.eye(L.width, n_in),
                            np.zeros(L.width), np.concatenate([box.lo, pad]),
                            np.concatenate([box.hi, pad]))
    bld = _RegisterBuilder(empty)
    for k in range(m + 1):
        # feature k enters the compute register while the accumulators add
        # feature k - 1 and, after the last feature, the readout bias
        bld.begin_layer()
        for s in L.input_registers:
            bld.carry(s)
        for j, s in enumerate(L.output_registers):
            bld.carry(s, {s: 1.0, comp: W2[j, k]}, b2[j] if k == m else 0.0)
        if k < m:
            u = bld.unit({s: W1[k, i] for i, s in enumerate(L.input_registers)}, b1[k])
            bld.read(comp, {u: 1.0})
        else:
            bld.read_zero(comp)
        bld.end_layer()
    return bld.finalize()


@_within_double_range
def clip_and_localize(g: RegisterNetwork, J: Box, delta: float,
                      c: float, C: float) -> RegisterNetwork:
    """Append layers so each output matches clip(g_j, c, C) on J and is zero off K.

    K is the delta-enlargement of J and must sit inside the declared box of g.
    Per input coordinate, two layers store an unclamped trapezoid profile in
    that coordinate's register (2 units each); a running-minimum chain, a
    single clamp layer, and the two clip layers follow.  Every appended layer
    keeps the register width.
    """
    if not isinstance(g, RegisterNetwork):
        raise ValidationError("clip needs a register-form network with bookkeeping")
    if not (delta > 0.0):
        raise ValidationError("clip needs delta > 0")
    if not -math.inf < c < C < math.inf:
        raise ValidationError("clip needs finite c < C")
    if J.dim != g.network.input_dim:
        raise ValidationError("clip box dimension disagrees with the network")
    K = J.enlarged(delta)
    if not g.box.covers(K):
        raise ValidationError("the declared box must contain the enlarged clip region")
    bld = _RegisterBuilder(g)
    L = bld.layout
    n_in = len(L.input_registers)
    comp = L.compute_index
    inv = 1.0 / delta
    for i, s in enumerate(L.input_registers):
        a_i, b_i = float(J.lo[i]), float(J.hi[i])
        # rising clamp into the register, shifted coordinate into compute
        bld.begin_layer()
        u1 = bld.unit({s: 1.0}, delta - a_i)
        u2 = bld.unit({s: 1.0}, -a_i)
        bld.read(s, {u1: inv, u2: -inv})
        bld.read(comp, {u1: 1.0}, a_i - delta)
        bld.end_layer()
        # meet with the affine falling ramp: min(r, d) = r - relu(r - d)
        bld.begin_layer()
        w1 = bld.unit({s: 1.0, comp: inv}, -(b_i + delta) * inv)
        w2 = bld.unit({s: 1.0})
        bld.read(s, {w2: 1.0, w1: -1.0})
        bld.read_zero(comp)
        bld.end_layer()
    # running minimum of the stored trapezoids
    for k in range(1, n_in):
        prev = L.input_registers[0] if k == 1 else comp
        vslot = L.input_registers[k]
        bld.begin_layer()
        N = 1.0 + max(0.0, -bld.lo[prev])
        beta = bld.unit({prev: 1.0}, N)
        alpha = bld.unit({prev: 1.0, vslot: -1.0})
        bld.read(comp, {beta: 1.0, alpha: -1.0}, -N)
        bld.read_zero(vslot)
        if prev != comp:
            bld.read_zero(prev)
        bld.end_layer()
    source = comp if n_in > 1 else L.input_registers[0]
    # clamp the minimum at zero; the result is the box profile V
    bld.begin_layer()
    gamma = bld.unit({source: 1.0})
    bld.read(comp, {gamma: 1.0})
    for t in L.input_registers:
        bld.read_zero(t)
    bld.end_layer()
    # G_j = -relu(-relu(g_j - c V) + (C - c) V) + C V
    bld.begin_layer()
    q_units = [bld.unit({s: 1.0, comp: -c}) for s in L.output_registers]
    vu = bld.unit({comp: 1.0})
    for s, q in zip(L.output_registers, q_units):
        bld.read(s, {q: 1.0})
    bld.read(comp, {vu: 1.0})
    bld.end_layer()
    bld.begin_layer()
    r_units = [bld.unit({s: -1.0, comp: C - c}) for s in L.output_registers]
    vu = bld.unit({comp: 1.0})
    for s, r in zip(L.output_registers, r_units):
        bld.read(s, {r: -1.0, vu: C})
    bld.read(comp, {vu: 1.0})
    bld.end_layer()
    return bld.finalize()


@dataclass(frozen=True, eq=False)
class AffineMap:
    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=np.float64))
        if a.ndim != 1 or not np.all(np.isfinite(a)) or not math.isfinite(self.b):
            raise ValidationError("affine map needs finite coefficients")
        object.__setattr__(self, "a", _frozen(a, self.a))
        object.__setattr__(self, "b", float(self.b))

    def __call__(self, X: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return pts @ self.a + self.b


class AffineFamily:
    """All maps x -> a.x + b on R^dim."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValidationError("family dimension must be positive")
        self.dim = dim

    def sample_member(self, rng: np.random.Generator) -> AffineMap:
        return AffineMap(rng.standard_normal(self.dim), float(rng.standard_normal()))

    def add(self, m1: AffineMap, m2: AffineMap):
        return AffineMap(m1.a + m2.a, m1.b + m2.b)

    def constant(self, value: float):
        return AffineMap(np.zeros(self.dim), value)

    def separating_member(self, x1: np.ndarray, x2: np.ndarray):
        return AffineMap(np.asarray(x1, dtype=np.float64) - np.asarray(x2, dtype=np.float64), 0.0)


class LinearOnlyFamily(AffineFamily):
    """Maps x -> a.x with no constant term; cannot represent constants."""

    def sample_member(self, rng):
        return AffineMap(rng.standard_normal(self.dim), 0.0)

    def add(self, m1, m2):
        return AffineMap(m1.a + m2.a, 0.0)

    def constant(self, value):
        if value == 0.0:
            return AffineMap(np.zeros(self.dim), 0.0)
        return None


class ZeroFamily(AffineFamily):
    """The single map x -> 0; cannot separate points."""

    def sample_member(self, rng):
        return AffineMap(np.zeros(self.dim), 0.0)

    def add(self, m1, m2):
        return AffineMap(np.zeros(self.dim), 0.0)

    def constant(self, value):
        if value == 0.0:
            return AffineMap(np.zeros(self.dim), 0.0)
        return None

    def separating_member(self, x1, x2):
        return None


@dataclass(frozen=True)
class AdditiveFamilyReport:
    closed_under_addition: bool
    point_separating: bool
    contains_constants: bool


def check_additive_family(family, probe_points, seed: int = 0,
                          pair_samples: int = 8) -> AdditiveFamilyReport:
    """Sampled verdicts for the three additive-family axioms."""
    pts = np.atleast_2d(np.asarray(probe_points, dtype=np.float64))
    if pts.shape[0] < 2:
        raise ValidationError("need at least two probe points")
    rng = np.random.default_rng(seed)
    closed = True
    for _ in range(pair_samples):
        m1 = family.sample_member(rng)
        m2 = family.sample_member(rng)
        m12 = family.add(m1, m2)
        if m12 is None:
            closed = False
            break
        want = m1(pts) + m2(pts)
        if np.max(np.abs(m12(pts) - want)) > 1e-12 * max(1.0, float(np.max(np.abs(want)))):
            closed = False
            break
    separating = True
    for i in range(pts.shape[0]):
        for j in range(i + 1, pts.shape[0]):
            if np.array_equal(pts[i], pts[j]):
                continue
            h = family.separating_member(pts[i], pts[j])
            scale = 1.0 + float(np.max(np.abs(pts[i])) + np.max(np.abs(pts[j])))
            if h is None or abs(float(h(pts[i:i + 1])[0] - h(pts[j:j + 1])[0])) <= 1e-9 * scale:
                separating = False
                break
        if not separating:
            break
    constants = True
    for v in (1.0, -2.5, math.pi):
        h = family.constant(v)
        if h is None or np.max(np.abs(h(pts) - v)) > 1e-12 * max(1.0, abs(v)):
            constants = False
            break
    return AdditiveFamilyReport(closed, separating, constants)


def quadratic_weight(X: np.ndarray) -> np.ndarray:
    """Admissible weight 1 + ||x||^2 on R^d."""
    pts = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return 1.0 + np.sum(pts * pts, axis=1)


def quadratic_weight_scalar(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return 1.0 + z * z


@dataclass(frozen=True)
class WeightCompatReport:
    sup_ratio: float
    admissible_weight: bool
    ring_min_w: float
    inner_min_w: float


def check_weight_compatibility(h_members, weight_w, weight_w1,
                               probe_points) -> WeightCompatReport:
    """sup over members and probes of w1(h(x)) / w(x), plus a weight check.

    The admissibility proxy asks that the input weight grows outward: hull
    points of the probe cloud are pushed out to three times their distance
    from the cloud's center, and the weight's minimum over that ring must
    exceed its minimum over the probes themselves.  Constant and decaying
    weights fail; weights with bounded sublevel sets pass on any probe box
    around which they keep growing.
    """
    pts = np.atleast_2d(np.asarray(probe_points, dtype=np.float64))
    w = np.asarray(weight_w(pts), dtype=np.float64).ravel()
    if np.any(w <= 0.0) or np.any(~np.isfinite(w)):
        raise ValidationError("weight must be finite and strictly positive")
    sup_ratio = 0.0
    for h in h_members:
        z = np.asarray(h(pts), dtype=np.float64).ravel()
        w1 = np.asarray(weight_w1(z), dtype=np.float64).ravel()
        if np.any(w1 <= 0.0) or np.any(~np.isfinite(w1)):
            raise ValidationError("hidden weight must be finite and strictly positive")
        sup_ratio = max(sup_ratio, float(np.max(w1 / w)))
    col_lo = np.min(pts, axis=0)
    col_hi = np.max(pts, axis=0)
    if np.any(col_hi <= col_lo):
        raise ValidationError("probe points must span a box in every coordinate")
    center = 0.5 * (col_lo + col_hi)
    on_hull = np.any((pts == col_lo) | (pts == col_hi), axis=1)
    ring = center + 3.0 * (pts[on_hull] - center)
    ring_w = np.asarray(weight_w(ring), dtype=np.float64).ravel()
    if np.any(ring_w <= 0.0) or np.any(~np.isfinite(ring_w)):
        raise ValidationError("weight must be finite and strictly positive")
    inner_min = float(np.min(w))
    ring_min = float(np.min(ring_w))
    return WeightCompatReport(sup_ratio, ring_min > inner_min, ring_min, inner_min)
