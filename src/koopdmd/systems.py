"""Built-in dynamical systems used to generate benchmark time series.

A SystemSpec names a kind, exactly the parameters REQUIRED_PARAMS lists for
it, a start state and a sampling grid. Flows (lorenz, vanderpol) are
integrated with classical fixed-step RK4, subdividing each sampling interval
so the local step never exceeds min(dt, 0.005). One RK4 core serves both. It
steps the state as Python floats, because on a 2- or 3-element state numpy's
per-call overhead costs several times the arithmetic. Maps are exact: circle
and torus rotate by their omega vector mod 2*pi, linear iterates its matrix.
Trajectories are deterministic given the spec. An Observable is an
expression over z1..zd; its fixed kinds are shorthands for such expressions.
"""
from __future__ import annotations

import ast
import math
import operator
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .embed import LABEL_BREAKS, TimeSeries, is_label
from .errors import DecompositionError, IntegrationError

# Largest RK4 substep used when integrating flows, in seconds.
MAX_SUBSTEP = 0.005

# The parameters each system kind reads, all required and no others; the
# CLI derives its config keys from this table. Its keys are the kinds.
REQUIRED_PARAMS = {
    "lorenz": ("sigma", "rho", "beta"),
    "vanderpol": ("mu",),
    "circle": ("omega",),
    "torus": ("omega1", "omega2"),
    "linear": ("matrix",),
}

_STATE_DIM = {"lorenz": 3, "vanderpol": 2, "circle": 1, "torus": 2}

# Classical parameter values and initial states used by the bundled recipes.
LORENZ_PARAMS = {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}
VDP_MU = 0.3
VDP_Z1 = (4.0, 4.0)
VDP_Z2 = (0.0, 4.0)


def _real(x) -> bool:
    """x is a JSON number (bools count as 0/1) with a finite float value."""
    try:
        return isinstance(x, (int, float)) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _integer(x) -> bool:
    """x is a JSON integer: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _finite_array(x, ndim: int) -> np.ndarray | None:
    """x as a float array of ndim dimensions whose entries are all finite
    numbers (bools count as 0/1), or None if it is not one."""
    try:
        a = np.asarray(x)
    except ValueError:  # ragged nesting
        return None
    if a.dtype.kind not in "biuf" or a.ndim != ndim or not np.all(np.isfinite(a)):
        return None
    return a.astype(float)


@dataclass(frozen=True)
class SystemSpec:
    """One system, one initial state, one sampling grid, such as
    SystemSpec("circle", {"omega": 0.5}, (0.0,), 1.0, 100). Construction
    checks every field, and each ValueError message starts with its name."""

    kind: str
    params: dict
    z0: np.ndarray
    dt: float
    steps: int

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in REQUIRED_PARAMS):
            raise ValueError(f"kind: expected one of {tuple(REQUIRED_PARAMS)}, got {self.kind!r}")
        names = REQUIRED_PARAMS[self.kind]
        for p in self.params:
            if p not in names:
                raise ValueError(f"{p}: the {self.kind} kind reads only {', '.join(names)}; "
                                 "drop the key")
        for p in names:
            if p not in self.params:
                raise ValueError(f"{p}: required for kind={self.kind}")
            if p != "matrix" and not _real(self.params[p]):
                raise ValueError(f"{p}: finite number required, got {self.params[p]!r}")
        if not (_real(self.dt) and self.dt > 0):
            raise ValueError(f"dt: positive number required, got {self.dt!r}")
        if not ((_integer(self.steps) or isinstance(self.steps, np.integer)) and self.steps >= 1):
            raise ValueError(f"steps: integer >= 1 required, got {self.steps!r}")
        dim = _STATE_DIM.get(self.kind)
        if self.kind == "linear":
            mat = _finite_array(self.params["matrix"], 2)
            if mat is None or mat.shape[0] != mat.shape[1]:
                raise ValueError("matrix: square list of rows of finite numbers expected")
            dim = mat.shape[0]
        z = _finite_array(self.z0, 1)
        if z is None or z.size != dim:
            raise ValueError(f"z0: a state of {dim} finite numbers expected for kind={self.kind}")
        object.__setattr__(self, "z0", z)
        object.__setattr__(self, "dt", float(self.dt))


@dataclass(frozen=True)
class Trajectory:
    """States sampled every dt: states[i] is the state after i steps."""

    states: np.ndarray
    dt: float
    kind: str

    def __len__(self) -> int:
        return self.states.shape[0]


def lorenz_initial_state(seed: int) -> np.ndarray:
    """Seeded perturbation of (1, 1, 1); pair with a transient skip."""
    rng = np.random.default_rng(seed)
    return np.array([1.0, 1.0, 1.0]) + 0.05 * rng.standard_normal(3)


def _lorenz_deriv(sigma, rho, beta):
    sigma, rho, beta = float(sigma), float(rho), float(beta)

    def deriv(x, y, w):
        return sigma * (y - x), x * (rho - w) - y, x * y - beta * w

    return deriv


def _vdp_deriv(mu):
    mu = float(mu)

    def deriv(x, y):
        return y, mu * (1.0 - x * x) * y - x

    return deriv


def integrate_flow(deriv, z0, dt: float, steps: int,
                   max_substep: float = MAX_SUBSTEP) -> np.ndarray:
    """Fixed-step RK4 sampling every dt; substeps keep the local step
    at or below min(dt, max_substep). Returns (steps+1) x dim states.
    deriv(*z) takes the state's coordinates as floats and returns their
    derivatives as a sequence of floats. Each state is appended to one
    flat array("d"), so the run holds about 8 (steps+1) dim bytes, and the
    result is a view of that array."""
    nsub = max(1, math.ceil(dt / max_substep))
    h = dt / nsub
    half, sixth = 0.5 * h, h / 6.0
    z = [float(v) for v in z0]
    out = array("d", z)
    for i in range(steps):
        for _ in range(nsub):
            k1 = deriv(*z)
            k2 = deriv(*[a + half * k for a, k in zip(z, k1)])
            k3 = deriv(*[a + half * k for a, k in zip(z, k2)])
            k4 = deriv(*[a + h * k for a, k in zip(z, k3)])
            z = [a + sixth * (p + 2.0 * q + 2.0 * r + s)
                 for a, p, q, r, s in zip(z, k1, k2, k3, k4)]
        if not all(map(math.isfinite, z)):
            raise IntegrationError(f"state became non-finite at step {i + 1}")
        out.extend(z)
    return np.frombuffer(out).reshape(steps + 1, len(z))


def integrate(spec: SystemSpec) -> Trajectory:
    """Sample the system for spec.steps steps (steps+1 recorded states)."""
    flow = {"lorenz": _lorenz_deriv, "vanderpol": _vdp_deriv}.get(spec.kind)
    if flow is not None:
        states = integrate_flow(flow(**spec.params), spec.z0, spec.dt, spec.steps)
    elif spec.kind == "linear":
        mat = np.asarray(spec.params["matrix"], dtype=float)
        states = np.empty((spec.steps + 1, spec.z0.size))
        states[0] = spec.z0
        z = spec.z0
        for i in range(spec.steps):
            z = mat @ z
            if not np.all(np.isfinite(z)):
                raise IntegrationError(f"state became non-finite at step {i + 1}")
            states[i + 1] = z
    else:  # circle, torus: a rotation by the omega vector
        omega = np.array([spec.params[p] for p in REQUIRED_PARAMS[spec.kind]])
        k = np.arange(spec.steps + 1)[:, None]
        states = np.mod(spec.z0[None, :] + k * (omega[None, :] * spec.dt), 2.0 * np.pi)
    return Trajectory(states=states, dt=spec.dt, kind=spec.kind)


def transient_skip(traj: Trajectory, skip: int) -> Trajectory:
    """Drop the first skip states (skip samples of transient)."""
    if skip < 0:
        raise ValueError(f"skip must be >= 0, got {skip}")
    if skip >= len(traj) - 1:
        raise ValueError(f"skip={skip} leaves fewer than 2 of {len(traj)} states")
    if skip == 0:
        return traj
    return replace(traj, states=traj.states[skip:])


# The grammar of observable expressions: z1..zd, pi, int and float
# literals, + - * / ** and unary +/-, and one-argument calls of these.
_FUNCTIONS = {"cos": np.cos, "sin": np.sin, "tan": np.tan, "exp": np.exp,
              "log": np.log, "sqrt": np.sqrt, "abs": np.abs}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}

#: Deepest expression tree _evaluate descends, one Python frame per level
#: (Python's default limit is 1000); a chain a+b+... of n terms nests n deep.
MAX_NESTING = 800


def _evaluate(node: ast.AST, env: dict, depth: int = 1):
    """Value of an expression tree, in Python's evaluation order."""
    if depth > MAX_NESTING:
        raise RecursionError
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id in env:
        return env[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        left, right = _evaluate(node.left, env, depth + 1), _evaluate(node.right, env, depth + 1)
        # An integer power above 2**1024 cannot become a float64 sample, and
        # computing it exactly can take hours (9**9**9).
        if (type(node.op) is ast.Pow and type(left) is int and type(right) is int
                and abs(left) > 1 and right * math.log2(abs(left)) > 1024):
            raise ValueError("integer power exceeds the float64 range")
        return _BINARY[type(node.op)](left, right)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_evaluate(node.operand, env, depth + 1))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1
            and not isinstance(node.args[0], ast.Starred) and not node.keywords):
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0], env, depth + 1))
    raise ValueError(f"{ast.unparse(node)!r} is not allowed")


# A custom expression's default label replaces what a label must not hold.
_FOLD = str.maketrans(dict.fromkeys(LABEL_BREAKS, ";"))


def _sum(terms: list[str]) -> str:
    """terms added as a balanced tree, so _evaluate recurses log2(len(terms))
    deep; up to three terms it is the left-to-right sum z1+z2+z3."""
    if len(terms) == 1:
        return terms[0]
    half = (len(terms) + 1) // 2
    left, right = _sum(terms[:half]), _sum(terms[half:])
    return f"{left}+{right}" if len(terms) - half == 1 else f"{left}+({right})"


# Each observable kind reads one key and stands for an expression of the
# grammar: kind -> (key, the key's value -> (expression, default label)).
_KINDS = {
    "coordinate": ("index", lambda i: (f"z{i + 1}", f"z{i + 1}")),
    "sum": ("indices", lambda indices: (_sum([f"z{i + 1}" for i in indices]),
                                         "+".join(f"z{i + 1}" for i in indices))),
    "cos_angle": ("index", lambda i: (f"cos(z{i + 1})", f"cos_z{i + 1}")),
    "custom": ("expression", lambda text: (text, text.translate(_FOLD))),
}


@dataclass(frozen=True)
class Observable:
    """Scalar function of the state, evaluated along a trajectory.

    Each kind reads one key and is resolved at construction to an
    expression of the grammar above: coordinate to z{index+1}, sum to a
    balanced tree z{i+1}+... over indices, cos_angle to cos(z{index+1})
    (index defaults to 0), custom to its expression. Construction checks every field, and
    each ValueError message starts with the field's name. The default
    label is z1, z1+z2, cos_z1, or the expression with ';' for each
    character that embed.is_label refuses. An index beyond the state
    dimension, an expression outside the grammar or MAX_NESTING, or one
    that does not give one value per sample is a ValueError when evaluated.
    """

    kind: str = ""
    index: int | None = None
    indices: tuple[int, ...] | None = None
    expression: str | None = None
    label: str = ""
    _formula: str = field(init=False, repr=False, compare=False)  # the expression evaluated

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _KINDS):
            raise ValueError(f"kind: expected one of {tuple(_KINDS)}, got {self.kind!r}")
        key, shorthand = _KINDS[self.kind]
        for name in ("index", "indices", "expression"):
            if name != key and getattr(self, name) is not None:
                raise ValueError(f"{name}: the {self.kind} kind reads only {key}; drop the key")
        value = getattr(self, key)
        if key == "index":
            value = 0 if value is None else value
            if not (_integer(value) and value >= 0):
                raise ValueError(f"index: integer >= 0 required, got {value!r}")
        elif key == "indices":
            if not (isinstance(value, (list, tuple)) and value
                    and all(_integer(i) and i >= 0 for i in value)):
                raise ValueError(f"indices: non-empty list of integers >= 0 required, got {value!r}")
            value = tuple(value)
        elif not (isinstance(value, str) and value.strip()):
            raise ValueError(f"expression: non-empty string required, got {value!r}")
        if not (isinstance(self.label, str) and is_label(self.label)):
            raise ValueError(f"label: string without commas or line breaks, got {self.label!r}")
        formula, label = shorthand(value)
        object.__setattr__(self, key, value)
        object.__setattr__(self, "label", self.label or label)
        object.__setattr__(self, "_formula", formula)

    def evaluate(self, states: np.ndarray) -> np.ndarray:
        """One value per row of states; nan or inf samples give no warning."""
        dim = states.shape[1]
        env = {"pi": np.pi, **{f"z{i + 1}": states[:, i] for i in range(dim)}}
        try:
            with np.errstate(all="ignore"):
                vals = _evaluate(ast.parse(self._formula, mode="eval").body, env)
        except RecursionError:  # ast.parse, too, recurses on a deep tree
            raise ValueError(f"expression nests deeper than the nesting limit of "
                             f"{MAX_NESTING} levels (a chain of n terms nests n deep)") from None
        except Exception as exc:
            raise ValueError(f"bad observable expression {self._formula!r} "
                             f"(state dimension {dim}): {exc}") from exc
        vals = np.array(vals, dtype=float)
        if vals.shape != (states.shape[0],):
            raise ValueError(f"expression {self._formula!r} must give one value per sample")
        return vals


def observe(traj: Trajectory, observable: Observable) -> TimeSeries:
    """Evaluate the observable along the trajectory as a TimeSeries."""
    values = observable.evaluate(traj.states)
    return TimeSeries(values=values, dt=traj.dt, label=observable.label)


def seeded_linear_system(seed: int, dim: int = 4) -> SystemSpec:
    """Random linear map with well-separated eigenvalues and a generic z0.

    Draws matrices (spectral radius normalized to 0.95) until the minimum
    pairwise eigenvalue gap is at least 0.05 and the sequential data matrix
    [z0, A z0, ..., A^{dim-1} z0] has condition number below 1e6, so the
    companion-basis variant stays well-posed. The spec runs dim steps, so
    it samples dim + 1 states. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    try:
        for _ in range(1000):
            a = rng.standard_normal((dim, dim))
            radius = np.max(np.abs(np.linalg.eigvals(a)))
            if radius == 0.0:
                continue
            a = 0.95 * a / radius
            vals = np.linalg.eigvals(a)
            gap = min(
                abs(vals[i] - vals[j]) for i in range(dim) for j in range(i + 1, dim)
            )
            if gap < 0.05:
                continue
            z0 = rng.standard_normal(dim)
            cols = [z0]
            for _ in range(dim - 1):
                cols.append(a @ cols[-1])
            if np.linalg.cond(np.column_stack(cols)) > 1e6:
                continue
            return SystemSpec("linear", {"matrix": a}, z0, 1.0, dim)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"seeded linear system {seed}: {exc}") from exc
    raise RuntimeError(f"no admissible linear system found for seed {seed}")  # pragma: no cover
