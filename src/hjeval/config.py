"""Text configuration format for problems and slices.

Line-oriented ``key = value`` files; ``#`` starts a comment, blank lines are
skipped, and list-valued keys repeat the key once per entry.  Numbers use
Python float syntax.

Problem files::

    architecture = arch1           # arch1 | arch2
    dimension = 1
    function = clipped_quadratic   # activation name, see FUNCTION NAMES
    param = -2, -0.5               # one per branch: point coords, then scalar
    param = 0, 0
    param = 2, -1

Function names: ``clipped_quadratic``, ``shifted_norm_plus``, ``pnorm``
(requires ``p = 1|2|inf``), ``max_affine`` (requires one
``affine = coords..., offset`` line per piece), ``half_squared_norm``;
arch2 activations are concave and use the ``neg_`` prefix, e.g.
``neg_half_squared_norm``.  arch2 nets may replace the ``param`` lines with
a generator::

    norm_hamiltonian = l1          # l1 | linf

Slice files::

    free_axes = 0, 1
    range = -6, 6, 101             # min, max, steps; one per free axis
    fixed = 0, 0, 0, 0, 0, 0, 0, 0 # remaining coordinates, index order
    times = 1e-06, 1, 3, 5
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .catalog import (
    ClippedQuadratic1D,
    ConcaveFn,
    ConvexFn,
    HalfSquaredNorm,
    MaxAffine,
    PNorm,
    ShiftedNormPlus,
)
from .initialdata import InitialDataNet, norm_hamiltonian_rows
from .lagrangian import LagrangianNet
from .slicing import SliceSpec

__all__ = ["ConfigError", "ProblemConfig", "parse_problem", "parse_slice", "load_problem", "load_slice"]


class ConfigError(ValueError):
    """Configuration rejected; ``field`` names the offending key."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


_SIMPLE_FUNCTIONS = {
    "clipped_quadratic": ClippedQuadratic1D,
    "shifted_norm_plus": ShiftedNormPlus,
    "half_squared_norm": HalfSquaredNorm,
}


def _parse_float(field_name: str, token: str) -> float:
    token = token.strip()
    try:
        return float(token)
    except ValueError:
        raise ConfigError(field_name, f"not a number: {token!r}") from None


def parse_floats(field_name: str, value: str) -> list[float]:
    return [_parse_float(field_name, tok) for tok in value.split(",")]


def _scan(text: str):
    """Yield (key, value) pairs from a config body."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        yield key.strip(), value.strip()


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class ProblemConfig:
    """Parsed problem description; builds nets and round-trips losslessly."""

    architecture: str
    dimension: int
    function: str
    p: float | None = None
    affine: tuple[tuple[float, ...], ...] = field(default=())
    params: tuple[tuple[float, ...], ...] = field(default=())
    norm_hamiltonian: str | None = None

    def make_activation(self):
        """The activation object: ConvexFn for arch1, ConcaveFn for arch2."""
        name = self.function
        concave = name.startswith("neg_")
        if concave != (self.architecture == "arch2"):
            raise ConfigError(
                "function",
                "arch1 takes a convex activation, arch2 a concave one (neg_ prefix)",
            )
        if concave:
            name = name[len("neg_") :]
        if name == "pnorm":
            if self.p is None:
                raise ConfigError("p", "function pnorm requires p = 1, 2 or inf")
            fn: ConvexFn = PNorm(p=self.p)
        elif name == "max_affine":
            if not self.affine:
                raise ConfigError("affine", "function max_affine requires affine rows")
            rows = [r[:-1] for r in self.affine]
            offsets = [r[-1] for r in self.affine]
            if any(len(r) != self.dimension for r in rows):
                raise ConfigError("affine", f"each row needs {self.dimension} coords plus an offset")
            fn = MaxAffine(rows, offsets)
        elif name in _SIMPLE_FUNCTIONS:
            fn = _SIMPLE_FUNCTIONS[name]()
        else:
            raise ConfigError("function", f"unknown activation {name!r}")
        if fn.dim is not None and fn.dim != self.dimension:
            raise ConfigError("dimension", f"activation {name!r} is {fn.dim}-dimensional")
        return ConcaveFn(fn) if concave else fn

    def branch_parameters(self):
        """(points, scalars) lists from the param lines or the generator."""
        if self.norm_hamiltonian is not None:
            try:
                return norm_hamiltonian_rows(self.norm_hamiltonian, self.dimension)
            except ValueError as exc:
                raise ConfigError("norm_hamiltonian", str(exc)) from None
        points = [row[:-1] for row in self.params]
        scalars = [row[-1] for row in self.params]
        return points, scalars

    def build_net(self):
        activation = self.make_activation()
        points, scalars = self.branch_parameters()
        if self.architecture == "arch1":
            return LagrangianNet(activation, points, scalars)
        return InitialDataNet(activation, points, scalars)

    def serialize(self) -> str:
        lines = [
            f"architecture = {self.architecture}",
            f"dimension = {self.dimension}",
            f"function = {self.function}",
        ]
        if self.p is not None:
            lines.append(f"p = {_fmt(self.p)}")
        for row in self.affine:
            lines.append("affine = " + ", ".join(_fmt(v) for v in row))
        for row in self.params:
            lines.append("param = " + ", ".join(_fmt(v) for v in row))
        if self.norm_hamiltonian is not None:
            lines.append(f"norm_hamiltonian = {self.norm_hamiltonian}")
        return "\n".join(lines) + "\n"


def parse_problem(text: str) -> ProblemConfig:
    architecture = None
    dimension = None
    function = None
    p = None
    affine: list[tuple[float, ...]] = []
    params: list[tuple[float, ...]] = []
    norm_hamiltonian = None

    for key, value in _scan(text):
        if key == "architecture":
            if value not in ("arch1", "arch2"):
                raise ConfigError("architecture", f"expected arch1 or arch2, got {value!r}")
            architecture = value
        elif key == "dimension":
            try:
                dimension = int(value)
            except ValueError:
                raise ConfigError("dimension", f"not an integer: {value!r}") from None
            if dimension < 1:
                raise ConfigError("dimension", "must be at least 1")
        elif key == "function":
            function = value
        elif key == "p":
            p = _parse_float("p", value)
        elif key == "affine":
            affine.append(tuple(parse_floats("affine", value)))
        elif key == "param":
            params.append(tuple(parse_floats("param", value)))
        elif key == "norm_hamiltonian":
            if value not in ("l1", "linf"):
                raise ConfigError("norm_hamiltonian", f"expected l1 or linf, got {value!r}")
            norm_hamiltonian = value
        else:
            raise ConfigError(key, "unknown key")

    if architecture is None:
        raise ConfigError("architecture", "missing")
    if dimension is None:
        raise ConfigError("dimension", "missing")
    if function is None:
        raise ConfigError("function", "missing")
    if norm_hamiltonian is not None:
        if architecture != "arch2":
            raise ConfigError("norm_hamiltonian", "only arch2 supports generated Hamiltonians")
        if params:
            raise ConfigError("param", "give either param lines or norm_hamiltonian, not both")
    elif not params:
        raise ConfigError("param", "missing: need at least one branch")
    for row in params:
        if len(row) != dimension + 1:
            raise ConfigError(
                "param", f"each line needs {dimension} coords plus a scalar, got {len(row)} values"
            )

    config = ProblemConfig(
        architecture=architecture,
        dimension=dimension,
        function=function,
        p=p,
        affine=tuple(affine),
        params=tuple(params),
        norm_hamiltonian=norm_hamiltonian,
    )
    config.make_activation()  # validate eagerly so parse errors name the field
    return config


def parse_slice(text: str) -> SliceSpec:
    free_axes = None
    ranges: list[tuple[float, float, int]] = []
    fixed: tuple[float, ...] = ()
    times = None

    for key, value in _scan(text):
        if key == "free_axes":
            try:
                free_axes = tuple(int(tok) for tok in value.split(","))
            except ValueError:
                raise ConfigError("free_axes", f"not integers: {value!r}") from None
        elif key == "range":
            vals = parse_floats("range", value)
            if len(vals) != 3:
                raise ConfigError("range", "expected min, max, steps")
            if not (math.isfinite(vals[2]) and vals[2] == int(vals[2])):
                raise ConfigError("range", "steps must be an integer")
            ranges.append((vals[0], vals[1], int(vals[2])))
        elif key == "fixed":
            fixed = tuple(parse_floats("fixed", value))
        elif key == "times":
            times = tuple(parse_floats("times", value))
        else:
            raise ConfigError(key, "unknown key")

    if free_axes is None:
        raise ConfigError("free_axes", "missing")
    if not ranges:
        raise ConfigError("range", "missing")
    if times is None:
        raise ConfigError("times", "missing")
    return SliceSpec(free_axes=free_axes, ranges=tuple(ranges), times=times, fixed_coords=fixed)


def load_problem(path) -> ProblemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def load_slice(path) -> SliceSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_slice(fh.read())
