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

Each format has one key table, ``_PROBLEM_KEYS`` and ``_SLICE_KEYS``: key ->
(value parser, whether the key repeats).  Both formats go through one reader,
``_read``, which refuses an unknown or a missing required key, naming it;
a repeated single-valued key keeps its last value.  ``serialize`` writes a
problem's keys in its table's order.
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


def parse_floats(field_name: str, value: str) -> tuple[float, ...]:
    """Comma-separated floats; a bad one is refused, naming ``field_name``."""
    return tuple([_parse_float(field_name, tok) for tok in value.split(",")])


def parse_ints(field_name: str, value: str) -> tuple[int, ...]:
    """Comma-separated integers; any bad one refuses the whole ``value``."""
    try:
        return tuple([int(tok) for tok in value.split(",")])
    except ValueError:
        raise ConfigError(field_name, f"not integers: {value!r}") from None


def _choice(*options: str):
    """A value parser that accepts exactly one of ``options``."""

    def parse(field_name: str, value: str) -> str:
        if value not in options:
            raise ConfigError(field_name, f"expected {' or '.join(options)}, got {value!r}")
        return value

    return parse


def _dimension(field_name: str, value: str) -> int:
    try:
        dimension = int(value)
    except ValueError:
        raise ConfigError(field_name, f"not an integer: {value!r}") from None
    if dimension < 1:
        raise ConfigError(field_name, "must be at least 1")
    return dimension


def _range(field_name: str, value: str) -> tuple[float, float, int]:
    vals = parse_floats(field_name, value)
    if len(vals) != 3:
        raise ConfigError(field_name, "expected min, max, steps")
    if not (math.isfinite(vals[2]) and vals[2] == int(vals[2])):
        raise ConfigError(field_name, "steps must be an integer")
    return vals[0], vals[1], int(vals[2])


# key -> (value parser, whether the key repeats), in serialization order.
_PROBLEM_KEYS = {
    "architecture": (_choice("arch1", "arch2"), False),
    "dimension": (_dimension, False),
    "function": (lambda _, value: value, False),
    "p": (_parse_float, False),
    "affine": (parse_floats, True),
    "param": (parse_floats, True),
    "norm_hamiltonian": (_choice("l1", "linf"), False),
}
_SLICE_KEYS = {
    "free_axes": (parse_ints, False),
    "range": (_range, True),
    "fixed": (parse_floats, False),
    "times": (parse_floats, False),
}


def _read(text: str, keys: dict, required: tuple[str, ...]) -> dict:
    """The keys given in a config body, each mapped to its parsed value.

    A repeating key maps to the tuple of its lines' values, in line order; a
    single-valued key given twice keeps its last value.  Refuses, naming
    what is wrong, the first line without ``=``, with an unknown key or with a
    bad value, and then the first key of ``required`` that is not given.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise ConfigError(key, "unknown key")
        parse, repeats = keys[key]
        if repeats:
            values.setdefault(key, []).append(parse(key, value))
        else:
            values[key] = parse(key, value)
    for key in required:
        if key not in values:
            raise ConfigError(key, "missing")
    return {key: tuple(value) if keys[key][1] else value for key, value in values.items()}


def _fmt(value) -> str:
    """Config text of a value: floats and rows lossless via ``repr``."""
    if isinstance(value, tuple):
        return ", ".join(map(repr, map(float, value)))
    return value if isinstance(value, str) else repr(value)


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
        """One line per set key, in ``_PROBLEM_KEYS`` order."""
        lines = []
        for key, (_, repeats) in _PROBLEM_KEYS.items():
            value = getattr(self, "params" if key == "param" else key)
            for item in value if repeats else () if value is None else (value,):
                lines.append(f"{key} = {_fmt(item)}")
        return "\n".join(lines) + "\n"


def parse_problem(text: str) -> ProblemConfig:
    values = _read(text, _PROBLEM_KEYS, ("architecture", "dimension", "function"))
    params = values.pop("param", ())
    if "norm_hamiltonian" in values:
        if values["architecture"] != "arch2":
            raise ConfigError("norm_hamiltonian", "only arch2 supports generated Hamiltonians")
        if params:
            raise ConfigError("param", "give either param lines or norm_hamiltonian, not both")
    elif not params:
        raise ConfigError("param", "missing: need at least one branch")
    dimension = values["dimension"]
    for row in params:
        if len(row) != dimension + 1:
            raise ConfigError(
                "param", f"each line needs {dimension} coords plus a scalar, got {len(row)} values"
            )
    config = ProblemConfig(params=params, **values)
    config.make_activation()  # validate eagerly so parse errors name the field
    return config


def parse_slice(text: str) -> SliceSpec:
    values = _read(text, _SLICE_KEYS, ("free_axes", "range", "times"))
    fixed = values.get("fixed", ())
    return SliceSpec(values["free_axes"], values["range"], values["times"], fixed)


def load_problem(path) -> ProblemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def load_slice(path) -> SliceSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_slice(fh.read())
