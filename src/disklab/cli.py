"""Config-driven laboratory runs.

A run is described by one JSON file: a truncation window, named operators,
one experiment, and its parameters.  The runner writes a JSON report (and
optional CSV tables) and exits 0 when the experiment confirms or passes,
2 when it refutes or fails, 3 when it stays inconclusive, 1 on any
configuration or runtime error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import inspect
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .criteria import (
    CriterionData,
    CriterionError,
    SpectralSplit,
    _check_scalars,
    check_compound_scalar_free,
    check_compound_scaled,
    check_scalar_free_criterion,
    check_scaled_criterion,
    make_vector_sampler,
    roundtrip_scalar_derivation,
    spectral_witness,
)
from .hitsolver import DISK, FIXED, HIT, MISS_CERTIFIED, Certificate, HitProblem, _check_alphas, solve_hit
from .operators import (
    BackwardShift,
    Dense,
    Diagonal,
    DirectSum,
    EigenPair,
    ForwardShift,
    Scalar,
    WeightProfile,
    components_of,
    right_inverse,
    shared_stacks,
)
from .transitivity import (
    COMPOUND,
    CONFIRMED,
    DISK_TRANSITIVE,
    INCONCLUSIVE,
    K_BITRANSITIVE,
    MIXING,
    REFUTED,
    cross_scan,
    detect,
    disk_orbit_norms,
    junction_scan,
    junction_scans,
    make_ball_sampler,
)
from .vectorspace import (
    BILATERAL,
    UNILATERAL,
    Ball,
    ComplexVector,
    IndexWindow,
    ProductBall,
    trial_draws,
)

__all__ = [
    "ConfigError",
    "RunOutcome",
    "load_config",
    "apply_overrides",
    "run",
    "emit_plotdata",
    "main",
    "SCENARIOS",
]

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {
    CONFIRMED: EXIT_PASS,
    REFUTED: EXIT_FAIL,
    INCONCLUSIVE: EXIT_INCONCLUSIVE,
    "pass": EXIT_PASS,
    "fail": EXIT_FAIL,
}


class ConfigError(Exception):
    """Bad configuration; carries the dotted field path it points at."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        self.message = message
        super().__init__(f"config error at {field_path}: {message}")


# ---------------------------------------------------------------------------
# typed readers; every one is called as read(value, path, ctx) and names the
# offending field on failure.  ctx holds what a field depends on: the window,
# the operators and the fields of its table read before it.  Readers that need
# none of it ignore ctx.

Reader = Callable[..., Any]


def _reader(
    expected: str, accepts: Callable[[Any], bool], convert: Callable | None = None, show=repr
) -> Reader:
    def read(value: Any, path: str, ctx: dict | None = None) -> Any:
        if not accepts(value):
            raise ConfigError(path, f"expected {expected}, got {show(value)}")
        try:
            out = value if convert is None else convert(value)
        except OverflowError:
            # json.loads reads integers of any size; float() takes up to about 1.8e308
            raise ConfigError(path, "expected a finite number, got an integer too large for a float") from None
        # json.loads accepts NaN and Infinity; no field of a run means either
        if isinstance(out, (float, complex)) and not cmath.isfinite(out):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        return out

    return read


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_complex(value: Any) -> bool:
    # numbers are real scalars; [re, im] pairs carry a phase
    return _is_number(value) or (isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)))


def _type_name(value: Any) -> str:
    return type(value).__name__


_as_dict = _reader("an object", lambda v: isinstance(v, dict), show=_type_name)
_as_list = _reader("a list", lambda v: isinstance(v, list), show=_type_name)
_as_str = _reader("a string", lambda v: isinstance(v, str), show=_type_name)
_as_int = _reader("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_as_float = _reader("a number", _is_number, float)
_as_complex = _reader(
    "a number or [re, im] pair", _is_complex, lambda v: complex(*v) if isinstance(v, list) else complex(v)
)


def _at_least(low: int, what: str) -> Reader:
    """Reader of an integer of at least low, such as a window size, a count or a seed."""

    def read(value: Any, path: str, ctx: dict | None = None) -> int:
        n = _as_int(value, path)
        if n < low:
            raise ConfigError(path, f"{what} must be at least {low}")
        return n

    return read


def _positive(what: str) -> Reader:
    """Reader of a number above 0, such as a radius, a bound or a weight."""

    def read(value: Any, path: str, ctx: dict | None = None) -> float:
        x = _as_float(value, path)
        if x <= 0:
            raise ConfigError(path, f"{what} must be positive")
        return x

    return read


_as_size = _at_least(1, "window size")
_as_trials = _at_least(1, "trials")
_as_horizon = _at_least(1, "horizon")
_as_sample_count = _at_least(1, "sample_count")


def _items(read: Reader) -> Reader:
    """Reader of a list into the tuple of its entries, each taken by `read` at path[i]."""
    return lambda value, path, ctx=None: tuple(
        read(v, f"{path}[{i}]", ctx) for i, v in enumerate(_as_list(value, path))
    )


def _int_keyed(read: Reader) -> Reader:
    """Reader of an object keyed by integer indices, values taken by `read`."""

    def read_table(value: Any, path: str, ctx: dict | None = None) -> dict:
        out = {}
        for key, raw in _as_dict(value, path).items():
            try:
                idx = int(key)
            except ValueError:
                raise ConfigError(_sub(path, key), "keys must be integer indices") from None
            out[idx] = read(raw, _sub(path, key), ctx)
        return out

    return read_table


class _Choice(NamedTuple):
    """Reader of a string naming one of the keys of `options`; returns its value."""

    options: Mapping
    what: str

    def __call__(self, value: Any, path: str, ctx: dict | None = None) -> Any:
        if _as_str(value, path) not in self.options:
            raise ConfigError(path, f"unknown {self.what} {value!r}")
        return self.options[value]


_REQUIRED = object()  # the default of a field that must be given


def _sub(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


# ---------------------------------------------------------------------------
# tables: every JSON object of a config is read from one table, which says
# which keys it takes


class _Field(NamedTuple):
    """A field's reader, its default (_REQUIRED: must be given; None: may be
    left out; or a function of ctx), and the values of the table's choice
    (experiment, type, mode or variant) that read it, None for all of them."""

    read: Reader
    default: Any = _REQUIRED
    only: tuple[str, ...] | None = None


class _Table(NamedTuple):
    """A runner, its fields in reading order, and the field that is its choice."""

    run: Callable[..., RunOutcome]
    fields: Mapping[str, _Field]
    choice: str | None = None


def _read_table(
    spec: Any, fields: Mapping[str, _Field], path: str, choice=None, what="field of this object", **ctx: Any
) -> dict:
    """The object at path read field by field, in table order, into ctx, which
    holds what the caller passed; each reader gets ctx with the fields read
    before it.  A field that the chosen value of the choice does not read is
    None.  The keys are checked first, so that a misspelt or stale key cannot
    pass unnoticed: a key no field holds is an error naming the table (`what`),
    and so is a key the chosen value does not read, unless that value is
    unknown, which the choice's own reader then refuses."""
    params = _as_dict(spec, path)
    picked = params.get(choice, fields[choice].default) if choice else None
    known = isinstance(picked, str) and picked in fields[choice].read.options
    for key in params:
        f = fields.get(key)
        if f is None:
            raise ConfigError(_sub(path, key), f"not a {what}; it takes {', '.join(sorted(fields))}")
        if known and f.only is not None and picked not in f.only:
            message = f"not read when {choice} is {picked!r}; only {choice} {', '.join(f.only)} reads it"
            raise ConfigError(_sub(path, key), message)
    for key, f in fields.items():
        read = f.only is None or picked in f.only
        default = None if not read else f.default(ctx) if callable(f.default) else f.default
        value = params.get(key, default) if read else None
        if value is _REQUIRED:
            raise ConfigError(_sub(path, key), "missing required field")
        # a field whose default is None may be left out or null, and reads as None
        ctx[key] = None if value is None and default is None else f.read(value, _sub(path, key), ctx)
    return ctx


# ---------------------------------------------------------------------------
# config loading


def load_config(path: str | Path) -> dict:
    text = Path(path).read_text()
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"line {e.lineno}, column {e.colno}", e.msg) from None
    return _as_dict(cfg, "<root>")


def apply_overrides(cfg: dict, overrides: Sequence[str]) -> dict:
    """Apply --override key=value pairs; dotted keys descend, values parse as JSON."""
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(key or item, "override must look like key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for i, part in enumerate(parts[:-1]):
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ConfigError(".".join(parts[: i + 1]), "override path crosses a non-object")
            node = nxt
        node[parts[-1]] = value
    return cfg


# ---------------------------------------------------------------------------
# builders


_WINDOW = {
    "kind": _Field(_Choice({"bilateral": BILATERAL, "unilateral": UNILATERAL}, "window kind"), "bilateral"),
    "m": _Field(_as_size),
}


def build_window(spec: Any, path: str = "window", ctx: Mapping | None = None) -> IndexWindow:
    kind, m = _read_table(spec, _WINDOW, path, None, "field of this window").values()
    return IndexWindow(kind, m)


def _read_names(value: Any, path: str, ctx: Mapping) -> tuple:
    """A list of operator names, looked up among the operators read before."""
    return _items(_Choice(ctx["registry"], "operator"))(value, path)


def _read_matrix(value: Any, path: str, ctx: Mapping) -> np.ndarray:
    rows = _items(_items(_as_complex))(value, path)
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ConfigError(path, "matrix must be square")
    dim = ctx["window"].dim
    if len(rows) != dim:
        raise ConfigError(path, f"matrix is {len(rows)}x{len(rows)} but the window holds {dim} coordinates")
    return np.array(rows, dtype=np.complex128)


# the type field reads into the function that makes the operator from the
# values its table read
_SHIFTS = ("forward_shift", "backward_shift")
_OPERATOR_TYPES = {
    "forward_shift": lambda v: ForwardShift(WeightProfile(v["pos"], v["neg"], v["table"])),
    "backward_shift": lambda v: BackwardShift(WeightProfile(v["pos"], v["neg"], v["table"])),
    "diagonal": lambda v: Diagonal(v["entries"], v["default"]),
    "scalar": lambda v: Scalar(v["value"]),
    "dense": lambda v: Dense(v["matrix"]),
    "direct_sum": lambda v: DirectSum(v["parts"]),
}
_WEIGHT = _positive("weights")
_OPERATOR = {
    "type": _Field(_Choice(_OPERATOR_TYPES, "operator type")),
    "pos": _Field(_WEIGHT, only=_SHIFTS),
    "neg": _Field(_WEIGHT, lambda ctx: ctx["pos"], _SHIFTS),
    "table": _Field(_int_keyed(_WEIGHT), {}, _SHIFTS),
    "entries": _Field(_int_keyed(_as_complex), only=("diagonal",)),
    "default": _Field(_as_complex, None, ("diagonal",)),
    "value": _Field(_as_complex, only=("scalar",)),
    "matrix": _Field(_read_matrix, only=("dense",)),
    "parts": _Field(_read_names, only=("direct_sum",)),
}


def build_operators(spec: Any, window: IndexWindow, path: str = "operators") -> dict:
    registry: dict = {}
    specs = _as_dict(spec, path)
    # direct sums resolve after the plain operators they reference
    for name in sorted(specs, key=lambda n: isinstance(specs[n], dict) and specs[n].get("type") == "direct_sum"):
        what = "field of this operator"
        values = _read_table(specs[name], _OPERATOR, _sub(path, name), "type", what, window=window, registry=registry)
        registry[name] = values["type"](values)
    return registry


def _read_vector(value: Any, path: str, ctx: Mapping) -> ComplexVector:
    """A basis vector or a coefficient table; the fields of each refuse the other's key."""
    spec, window = _as_dict(value, path), ctx["window"]
    if "basis" in spec:
        fields = {"basis": _Field(_as_int), "scale": _Field(_as_complex, 1.0)}
        j, scale = _read_table(spec, fields, path, None, "field of this basis vector").values()
        key, indices = "basis", [j]
    elif "coeffs" in spec:
        fields = {"coeffs": _Field(_int_keyed(_as_complex))}
        key, indices = "coeffs", _read_table(spec, fields, path, None, "field of this coefficient vector")["coeffs"]
    else:
        raise ConfigError(path, "vector needs either a 'basis' index or a 'coeffs' table")
    for idx in indices:
        if not window.contains(idx):
            raise ConfigError(_sub(path, key), f"index {idx} falls outside the window")
    return ComplexVector.basis(window, j, scale) if key == "basis" else ComplexVector.from_coeffs(window, indices)


def _arity(ctx: Mapping) -> int:
    """The number of components of the operators a table has read."""
    return len(components_of(ctx["components"]))


def _read_balls(value: Any, path: str, ctx: Mapping) -> ProductBall:
    """One ball per component, each a centre vector and a radius."""
    items = _as_list(value, path)
    if len(items) != _arity(ctx):
        raise ConfigError(path, f"expected {_arity(ctx)} balls (one per component), got {len(items)}")
    fields, what = {"center": _Field(_read_vector), "radius": _Field(_positive("radius"))}, "field of this ball"
    balls = [_read_table(b, fields, f"{path}[{i}]", None, what, window=ctx["window"]) for i, b in enumerate(items)]
    return ProductBall(tuple(Ball(b["center"], b["radius"]) for b in balls))


def _read_components(value: Any, path: str, ctx: Mapping) -> tuple:
    """One operator name or a list of them, looked up among the run's operators."""
    comps = _read_names([value] if isinstance(value, str) else value, path, ctx)
    if not comps:
        raise ConfigError(path, "needs at least one operator")
    return comps


class _Sampler(NamedTuple):
    """Reader of a sampler object into factory(window, arity, ...).  Its table
    holds the keyword parameters of factory, each with factory's default."""

    factory: Callable
    fields: Mapping[str, _Field]

    @classmethod
    def of(cls, factory: Callable, **readers: Reader) -> _Sampler:
        defaults = inspect.signature(factory).parameters
        return cls(factory, {key: _Field(read, defaults[key].default) for key, read in readers.items()})

    def __call__(self, value: Any, path: str, ctx: Mapping) -> Callable:
        spec = _as_dict(value, path)
        kwargs = _read_table(spec, self.fields, path, None, "parameter of this sampler")
        lo, bound, band, support = (kwargs[key] for key in ("modulus_lo", "bound", "band", "support"))
        if lo is not None and not 0 <= lo <= bound:
            key = "modulus_lo" if "modulus_lo" in spec else "bound"
            raise ConfigError(_sub(path, key), f"modulus_lo {lo} must lie in [0, bound {bound}]")
        window = ctx["window"]
        # the support is drawn from the window's indices within [-band, band]
        available = window.dim if band is None else min(window.hi, band) - max(window.lo, -band) + 1
        if support > available:
            key = "band" if "band" in spec and "support" not in spec else "support"
            message = f"support {support} exceeds the {available} indices the window and band leave"
            raise ConfigError(_sub(path, key), message)
        return self.factory(window, _arity(ctx), **kwargs)


# ---------------------------------------------------------------------------
# run outcomes and report tables

Table = tuple[tuple[str, ...], list[tuple]]


@dataclass
class RunOutcome:
    verdict: str
    exit_code: int
    results: dict
    tables: dict[str, Table] = field(default_factory=dict)


def _outcome(verdict: str, results: dict, tables: dict[str, Table] | None = None) -> RunOutcome:
    return RunOutcome(verdict, _VERDICT_EXIT[verdict], results, tables or {})


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, frozenset):
        return [_jsonable(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple, set)):
        return [_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _vector_payload(v: ComplexVector) -> dict:
    kind = "bilateral" if v.window.kind == BILATERAL else "unilateral"
    coeffs = {str(j): v.coeffs[v.window.position(j)] for j in v.support()}
    return {"window": {"kind": kind, "m": v.window.m}, "coeffs": coeffs}


def _blank(value: Any) -> Any:
    """Table cell of an optional value: empty when it is absent."""
    return "" if value is None else value


def _scan_table(rep, arity: int) -> Table:
    header = ("n", "status") + tuple(f"abs_alpha_{i + 1}" for i in range(arity)) + ("residual",)
    rows = []
    for e in rep.entries:
        alphas = e.alphas if e.alphas is not None else (None,) * arity
        cells = [abs(a) if a is not None else "" for a in alphas]
        resid = max(e.residuals) if e.residuals else ""
        rows.append((e.n, e.status, *cells, resid))
    return header, rows


def _certificate_keys(cert: Certificate | None) -> dict:
    """A certificate under the report's keys; extends_past_horizon stays out."""
    values = (None, None, None) if cert is None else (cert.lower_bound, cert.kind, cert.component)
    return dict(zip(("lower_bound", "bound_kind", "certified_component"), values))


def _scan_payload(rep) -> dict:
    """A junction report as a dict, each entry's certificate flattened into its keys."""
    entries = [
        {"n": e.n, "status": e.status, "alphas": e.alphas, "residuals": e.residuals, **_certificate_keys(e.certificate)}
        for e in rep.entries
    ]
    return {"horizon": rep.horizon, "entries": entries, "hit_set": rep.hit_set, "tail_start": rep.tail_start}


def _criterion_table(report) -> Table:
    header = ("n_k",) + tuple(f"cond{i + 1}" for i in range(len(report.conditions)))
    rows = [
        (step,) + tuple(c.values[i] for c in report.conditions)
        for i, step in enumerate(report.steps)
    ]
    return header, rows


def _criterion_payload(report) -> dict:
    return {
        "steps": list(report.steps),
        "passed": report.passed,
        "conditions": [
            {"label": c.label, "passed": c.passed, "final": c.values[-1], "values": list(c.values)}
            for c in report.conditions
        ],
    }


def _trials_table(v) -> Table:
    header = ("trial", "first_hit", "tail_start", "hit_count", "certified_tail_from")
    rows = [
        (t.index, _blank(t.first_hit), _blank(t.tail_start), t.hit_count, _blank(t.certified_tail_from))
        for t in v.trials
    ]
    return header, rows


# ---------------------------------------------------------------------------
# experiment runners


def _run_orbit(v: dict) -> RunOutcome:
    comps = components_of(v["components"])
    if len(comps) != 1:
        raise ConfigError("parameters.components", "orbit takes exactly one operator")
    norms = disk_orbit_norms(comps[0], v["vector"], v["horizon"])
    table: Table = (("n", "norm"), [(n, float(x)) for n, x in enumerate(norms)])
    results = {"norms": [float(x) for x in norms], "horizon": v["horizon"]}
    return _outcome("pass", results, {"orbit": table})


def _run_hit(v: dict) -> RunOutcome:
    result = solve_hit(HitProblem(v["components"], v["n"], v["sources"], v["targets"], v["mode"], v["alphas"]))
    results: dict = {"status": result.status, "n": v["n"], "max_kkt_residual": result.max_kkt_residual}
    if result.witness is not None:
        results["witness"] = {
            "alphas": result.witness.alphas,
            "residuals": result.witness.residuals,
            "points": [_vector_payload(p) for p in result.witness.point.parts],
        }
    if result.certificate is not None:
        results.update(_certificate_keys(result.certificate))
    if result.best_residuals is not None:
        results["best_residuals"] = result.best_residuals
    return _outcome({HIT: "pass", MISS_CERTIFIED: "fail"}.get(result.status, INCONCLUSIVE), results)


def _scan_verdict(rep) -> str:
    if rep.hit_set:
        return "pass"
    if all(e.status == MISS_CERTIFIED for e in rep.entries if e.n >= 1):
        return "fail"
    return INCONCLUSIVE


def _run_junction(v: dict) -> RunOutcome:
    rep = junction_scan(v["components"], v["sources"], v["targets"], v["horizon"], v["mode"], v["alphas"])
    return _outcome(_scan_verdict(rep), {"scan": _scan_payload(rep)}, {"scan": _scan_table(rep, _arity(v))})


def _run_cross(v: dict) -> RunOutcome:
    horizon = v["horizon"]
    rep = cross_scan(v["components"], v["a"], v["b"], horizon, v["mode"], v["alphas"])
    scans = {"forward_scan": rep.forward_report, "backward_scan": rep.backward_report}
    results = {name: sorted(getattr(rep, name)) for name in ("forward", "backward", "junction")}
    results.update((name, _scan_payload(scan)) for name, scan in scans.items())
    tables = {name: _scan_table(scan, _arity(v)) for name, scan in scans.items()}
    certified = {
        e.n for scan in scans.values() for e in scan.entries if e.n >= 1 and e.status == MISS_CERTIFIED
    }
    if rep.junction:
        verdict = "pass"
    elif certified == set(range(1, horizon + 1)):
        verdict = "fail"
    else:
        verdict = INCONCLUSIVE
    return _outcome(verdict, results, tables)


def _run_detect(v: dict) -> RunOutcome:
    verdict = detect(v["kind"], v["components"], v["sampler"], trials=v["trials"], horizon=v["horizon"], seed=v["seed"])
    return _outcome(verdict.verdict, {"detect": asdict(verdict)}, {"trials": _trials_table(verdict)})


def _read_nk(value: Any, path: str, ctx: Mapping | None = None) -> tuple[int, ...]:
    """The powers a criterion probes: a list, or the range start..stop."""
    if isinstance(value, dict):
        fields = {"start": _Field(_as_int, 1), "stop": _Field(_as_int)}
        start, stop = _read_table(value, fields, path, None, "field of this power range").values()
        nk = tuple(range(start, stop + 1))
    else:
        nk = _items(_as_int)(value, path)
    if not nk or nk[0] < 1 or any(b <= a for a, b in zip(nk, nk[1:])):
        raise ConfigError(path, "powers must be strictly increasing and positive")
    return nk


def _read_lambdas(value: Any, path: str, ctx: Mapping) -> tuple:
    """One row of scalars per component, one scalar per probed power, each
    refused where the criteria refuse it."""
    rows = _items(_items(_as_complex))(value, path)
    arity, steps = _arity(ctx), ctx["horizon"] if ctx["nk"] is None else len(ctx["nk"])
    if len(rows) != arity:
        raise ConfigError(path, f"expected one row per component ({arity}), got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != steps:
            raise ConfigError(f"{path}[{i}]", f"expected {steps} scalars, got {len(row)}")
        for j, lam in enumerate(row):
            try:
                _check_scalars((lam,))
            except CriterionError as e:
                raise ConfigError(f"{path}[{i}][{j}]", str(e)) from None
    return rows


def _read_alphas(value: Any, path: str, ctx: Mapping) -> tuple:
    """Fixed mode's alphas, one per component, each refused where HitProblem
    refuses it."""
    alphas = _items(_as_complex)(value, path)
    for i, alpha in enumerate(alphas):
        try:
            _check_alphas((alpha,), 1)
        except ValueError as e:
            raise ConfigError(f"{path}[{i}]", str(e)) from None
    try:
        return _check_alphas(alphas, _arity(ctx))
    except ValueError as e:
        raise ConfigError(path, f"{e} ({_arity(ctx)}), got {len(alphas)}") from None


_COMPOUND_VARIANTS = ("compound_scaled", "compound_scalar_free")


def _run_criterion(v: dict) -> RunOutcome:
    comps, variant = components_of(v["components"]), v["variant"]
    compound = variant in _COMPOUND_VARIANTS
    if compound and len(comps) != 1:
        raise ConfigError("parameters.components", "compound variants take exactly one operator")
    if variant == "scaled" and v["lambdas"] is None:
        raise ConfigError("parameters.lambdas", "the scaled variant needs explicit scalars")
    nk = tuple(range(1, v["horizon"] + 1)) if compound else v["nk"]
    shared = {key: v[key] for key in ("lambdas", "tol", "sample_count", "seed")}
    smaps = tuple(right_inverse(c) for c in comps)
    data = CriterionData(components=comps, smaps=smaps, nk=nk, xsampler=v["sampler"], ysampler=v["sampler"], **shared)
    if variant == "roundtrip":
        rt = roundtrip_scalar_derivation(data, v["eps"])
        results = {
            "roundtrip": {
                "passed": rt.passed,
                "tol": rt.tol,
                "eps": v["eps"],
                "scaled_passes": list(rt.scaled_passes),
                "scalar_free": _criterion_payload(rt.scalar_free),
                "tail_indices": [p.tail_index for p in rt.derived.per_pair],
            }
        }
        table = _criterion_table(rt.scalar_free)
        return _outcome("pass" if rt.passed else "fail", results, {"criterion": table})
    if compound:
        check = check_compound_scaled if variant == "compound_scaled" else check_compound_scalar_free
    else:
        check = check_scaled_criterion if variant == "scaled" else check_scalar_free_criterion
    report = check(data)
    results = {"criterion": _criterion_payload(report)}
    return _outcome("pass" if report.passed else "fail", results, {"criterion": _criterion_table(report)})


# fields that several tables hold
_COMPONENTS = _Field(_read_components)
_BALLS = _Field(_read_balls)
_SCAN_MODE = {
    "mode": _Field(_Choice({DISK: DISK, FIXED: FIXED}, "mode"), DISK),
    "alphas": _Field(_read_alphas, lambda ctx: [1.0] * _arity(ctx), (FIXED,)),
}
_HORIZON = _Field(_as_horizon, 40)
_SEED = _Field(_at_least(0, "seed"), 0)  # run() reports it for every experiment
_TOL = _Field(_positive("tol"), 1e-6)
_EPS = _Field(_positive("eps"), 0.1)

_DETECT_KINDS = {kind: kind for kind in (DISK_TRANSITIVE, K_BITRANSITIVE, COMPOUND, MIXING)}
_CRITERION_VARIANTS = {variant: variant for variant in ("scaled", "scalar_free", "roundtrip", *_COMPOUND_VARIANTS)}

# a ball sampler draws its centres as a vector sampler does, and reads the same fields for them
_CENTRES = dict(
    support=_at_least(1, "support"), bound=_positive("bound"), band=_at_least(0, "band"), modulus_lo=_as_float
)
_RUNNERS = {
    "orbit": _Table(_run_orbit, {
        "components": _COMPONENTS, "vector": _Field(_read_vector),
        "horizon": _Field(_at_least(0, "horizon"), 40), "seed": _SEED,
    }),
    "hit": _Table(_run_hit, {
        "components": _COMPONENTS, "sources": _BALLS, "targets": _BALLS, **_SCAN_MODE,
        "n": _Field(_at_least(0, "n")), "seed": _SEED,
    }, "mode"),
    "junction": _Table(_run_junction, {
        "components": _COMPONENTS, "sources": _BALLS, "targets": _BALLS, **_SCAN_MODE, "horizon": _HORIZON,
        "seed": _SEED,
    }, "mode"),
    "cross": _Table(_run_cross, {
        "components": _COMPONENTS, "a": _BALLS, "b": _BALLS, **_SCAN_MODE, "horizon": _HORIZON, "seed": _SEED,
    }, "mode"),
    "detect": _Table(_run_detect, {
        "components": _COMPONENTS, "kind": _Field(_Choice(_DETECT_KINDS, "kind")), "trials": _Field(_as_trials, 20),
        "horizon": _HORIZON, "seed": _SEED,
        "sampler": _Field(_Sampler.of(make_ball_sampler, radius=_positive("radius"), **_CENTRES), {}),
    }),
    "criterion": _Table(_run_criterion, {
        "components": _COMPONENTS, "variant": _Field(_Choice(_CRITERION_VARIANTS, "variant"), "scalar_free"),
        "tol": _TOL, "sample_count": _Field(_as_sample_count, 25), "seed": _SEED,
        "sampler": _Field(_Sampler.of(make_vector_sampler, **_CENTRES), {}),
        "nk": _Field(_read_nk, {"start": 1, "stop": 40}, ("scaled", "scalar_free", "roundtrip")),
        "horizon": _Field(_as_horizon, 40, _COMPOUND_VARIANTS),
        "lambdas": _Field(_read_lambdas, None, ("scaled", "compound_scaled")),
        "eps": _EPS._replace(only=("roundtrip",)),
    }, "variant"),
}


# ---------------------------------------------------------------------------
# scenarios: named end-to-end studies with fixed defaults, composed from the
# experiment runners above on two fixed shifts


class _Scenario(dict):
    """A scenario's fields, read from its table, the fields the config set,
    and what it runs on: the weighted shifts t1 = (2, 3) and t2 = (2, 4) on
    the bilateral window of size m."""

    def __init__(self, values: dict, given: Iterable[str] = ()):
        super().__init__(values)
        self.given = frozenset(given)
        self.window = IndexWindow(BILATERAL, values["m"])
        self.registry = {"t1": ForwardShift(WeightProfile(2.0, 3.0)), "t2": ForwardShift(WeightProfile(2.0, 4.0))}

    def run(self, experiment: str, **params: Any) -> RunOutcome:
        ctx = {"experiment": experiment, "window": self.window, "operators": self.registry}
        runner, values = _read_parameters(params, "parameters", ctx)
        return runner(values)

    def criterion(self, components: list[str], variant: str = "scalar_free", **extra: Any) -> RunOutcome:
        counts = {key: self[key] for key in ("tol", "sample_count", "seed")}
        return self.run(
            "criterion", components=components, variant=variant, nk={"stop": self["stop"]}, sampler={"band": 1},
            **counts, **extra,
        )


def _single(mapping: dict) -> Any:
    """The value of a runner's one-entry results or tables."""
    (value,) = mapping.values()
    return value


def _scenario_shift_compound_not_mixing(s: _Scenario) -> RunOutcome:
    ball = [{"center": {"basis": 0}, "radius": 0.5}]
    scan = {"components": ["t1"], "horizon": s["horizon"], "sources": ball, "targets": ball}
    disk = s.run("junction", **scan)
    fixed = s.run("junction", **scan, mode=FIXED, alphas=[1.0])
    trials = {"components": ["t1"], "trials": s["trials"], "horizon": s["horizon"], "seed": s["seed"]}
    sampler = {"radius": s["radius"], "band": 1}
    compound = s.run("detect", kind=COMPOUND, sampler=sampler, **trials)
    mixing = s.run("detect", kind=MIXING, sampler=sampler, **trials)
    runs = {"disk_scan": disk, "fixed_scan": fixed, "compound_trials": compound, "mixing_trials": mixing}
    results = {name: _single(run.results) for name, run in runs.items()}
    tables = {name: _single(run.tables) for name, run in runs.items()}
    entries = results["fixed_scan"]["entries"]
    certified = [e["n"] for e in entries if e["status"] == MISS_CERTIFIED and e["n"] >= 1]
    results.update(compound=compound.verdict, mixing=mixing.verdict, fixed_certified_powers=certified)
    verdicts = (compound.verdict, mixing.verdict)
    if verdicts == (CONFIRMED, REFUTED):
        return _outcome("pass", results, tables)
    return _outcome(INCONCLUSIVE if INCONCLUSIVE in verdicts else "fail", results, tables)


def _spectral_order(s: _Scenario) -> None:
    """|small_entry| < p <= |c| < |large_entry|, the order SpectralSplit
    needs; the error names a field of the first comparison that fails: the
    one the config set, where it set only one of the two, else small_entry,
    c or large_entry."""
    small, p, c, large = (abs(s[key]) for key in ("small_entry", "p", "c", "large_entry"))
    for key, other, holds in (("small_entry", "p", small < p), ("c", "p", p <= c), ("large_entry", "c", c < large)):
        if not holds:
            if other in s.given and key not in s.given:
                key = other
            message = f"need |small_entry| < p <= |c| < |large_entry|, got {small:g}, {p:g}, {c:g}, {large:g}"
            raise ConfigError(_sub("parameters", key), message)


def _scenario_diagonal_spectral_split(s: _Scenario) -> RunOutcome:
    _spectral_order(s)
    small, large = s["small_entry"], s["large_entry"]
    split = SpectralSplit(
        op=Diagonal({0: small, 1: large}, default=0.0),
        p=s["p"],
        small=(EigenPair(small, ComplexVector.basis(s.window, 0)),),
        large=(EigenPair(large, ComplexVector.basis(s.window, 1)),),
        c=s["c"],
    )
    try:
        rep = spectral_witness(split, [1.0], [1.0], eps=s["eps"], delta=s["delta"], horizon=s["horizon"])
    except CriterionError as e:
        return _outcome("fail", {"r": None, "reason": str(e)})
    table: Table = (
        ("n", "correction_norm", "image_residual"),
        [(n, rep.correction_norms[i], rep.image_residuals[i]) for i, n in enumerate(rep.steps)],
    )
    results = {
        "r": rep.r,
        "correction_norms": list(rep.correction_norms),
        "image_residuals": list(rep.image_residuals),
    }
    return _outcome("pass", results, {"witness": table})


def _scenario_cross_junction_equivalence(s: _Scenario) -> RunOutcome:
    comps = (s.registry["t1"], s.registry["t2"])
    sampler = make_ball_sampler(s.window, 2, radius=s["radius"], band=1)
    draws = trial_draws(s["seed"], s["trials"], (sampler, sampler))
    # each trial's joint scan, then one scan per component
    scans = []
    for sources, targets in draws:
        scans.append((comps, sources, targets))
        parts = zip(comps, sources.balls, targets.balls)
        scans += [([op], ProductBall((src,)), ProductBall((tgt,))) for op, src, tgt in parts]
    reports = junction_scans(scans, s["horizon"])
    per_trial = []
    for t in range(len(draws)):
        joint, first, second = reports[3 * t : 3 * t + 3]
        meet = first.hit_set & second.hit_set
        per_trial.append({"trial": t, "joint": sorted(joint.hit_set), "intersection": sorted(meet)})
    mismatches = [d["trial"] for d in per_trial if d["joint"] != d["intersection"]]
    results = {"equivalent": not mismatches, "mismatching_trials": mismatches, "per_trial": per_trial}
    table: Table = (
        ("trial", "joint_hits", "component_intersection"),
        [(d["trial"], " ".join(map(str, d["joint"])), " ".join(map(str, d["intersection"]))) for d in per_trial],
    )
    return _outcome("pass" if not mismatches else "fail", results, {"trials": table})


def _scenario_scalar_derivation_roundtrip(s: _Scenario) -> RunOutcome:
    outcome = s.criterion(["t1"], "roundtrip", eps=s["eps"])
    rt = outcome.results["roundtrip"]
    results = {key: rt[key] for key in ("passed", "tol", "scaled_passes", "tail_indices")}
    return replace(outcome, results=dict(results, scalar_free_passed=rt["scalar_free"]["passed"]))


def _scenario_compound_plus_transitive(s: _Scenario) -> RunOutcome:
    sampler = make_ball_sampler(s.window, 1, radius=s["radius"], band=1)
    t1, t2 = [s.registry["t1"]], [s.registry["t2"]]
    draws = trial_draws(s["seed"], s["trials"], (sampler,) * 4)
    reports = junction_scans([scan for b in draws for scan in ((t1, b[0], b[1]), (t2, b[2], b[3]))], s["horizon"])
    per_trial = [
        {"trial": t, "common": sorted(reports[2 * t].hit_set & reports[2 * t + 1].hit_set)} for t in range(len(draws))
    ]
    empty = [d["trial"] for d in per_trial if not d["common"]]
    results = {"all_nonempty": not empty, "empty_trials": empty, "per_trial": per_trial}
    table: Table = (
        ("trial", "common_powers"),
        [(d["trial"], " ".join(map(str, d["common"]))) for d in per_trial],
    )
    return _outcome(CONFIRMED if not empty else INCONCLUSIVE, results, {"trials": table})


def _scenario_direct_sum_diskcyclic_criterion(s: _Scenario) -> RunOutcome:
    component_criteria = [s.criterion([name]).results["criterion"]["passed"] for name in ("t1", "t2")]
    direct_sum = s.criterion(["t1", "t2"])
    paired = s.run(
        "detect", components=["t1", "t2"], kind=K_BITRANSITIVE, trials=s["trials"], horizon=s["horizon"],
        seed=s["seed"], sampler={"band": 1},
    )
    results = {
        "component_criteria": component_criteria,
        "direct_sum_criterion": direct_sum.results["criterion"],
        "detect": paired.results["detect"],
    }
    tables = {"criterion": direct_sum.tables["criterion"], "trials": paired.tables["trials"]}
    if all(component_criteria) and direct_sum.verdict == "pass" and paired.verdict == CONFIRMED:
        return _outcome("pass", results, tables)
    return _outcome(INCONCLUSIVE if paired.verdict == INCONCLUSIVE else "fail", results, tables)


_RADIUS = _Field(_positive("radius"), 0.45)
_STOP = _Field(_at_least(1, "stop"), 40)
SCENARIOS: dict[str, _Table] = {
    "shift-compound-not-mixing": _Table(_scenario_shift_compound_not_mixing, dict(
        m=_Field(_as_size, 64), horizon=_HORIZON, trials=_Field(_as_trials, 5), seed=_SEED, radius=_RADIUS,
    )),
    "diagonal-spectral-split": _Table(_scenario_diagonal_spectral_split, dict(
        m=_Field(_as_size, 4), small_entry=_Field(_as_complex, 0.5), large_entry=_Field(_as_complex, 2.0),
        p=_Field(_positive("p"), 1.0), c=_Field(_as_complex, 1.5), eps=_EPS, delta=_Field(_positive("delta"), 0.1),
        horizon=_Field(_as_horizon, 60),
    )),
    "cross-junction-equivalence": _Table(_scenario_cross_junction_equivalence, dict(
        m=_Field(_as_size, 32), horizon=_Field(_as_horizon, 15), trials=_Field(_as_trials, 5), seed=_SEED,
        radius=_RADIUS,
    )),
    "scalar-derivation-roundtrip": _Table(_scenario_scalar_derivation_roundtrip, dict(
        m=_Field(_as_size, 64), stop=_STOP, eps=_EPS, seed=_SEED, sample_count=_Field(_as_sample_count, 10), tol=_TOL,
    )),
    "compound-plus-transitive": _Table(_scenario_compound_plus_transitive, dict(
        m=_Field(_as_size, 64), horizon=_HORIZON, trials=_Field(_as_trials, 20), seed=_SEED, radius=_RADIUS,
    )),
    "direct-sum-diskcyclic-criterion": _Table(_scenario_direct_sum_diskcyclic_criterion, dict(
        m=_Field(_as_size, 64), stop=_STOP, trials=_Field(_as_trials, 10), horizon=_HORIZON, seed=_SEED, tol=_TOL,
        sample_count=_Field(_as_sample_count, 10),
    )),
}


def _read_parameters(value: Any, path: str, ctx: Mapping) -> tuple[Callable[..., RunOutcome], dict]:
    """The runner of the experiment or scenario and what it runs on; a scenario
    takes its m from the config's window where its parameters leave m out."""
    params, window = _as_dict(value, path), ctx["window"]
    if ctx["experiment"] != "scenario":
        table, what, registry = _RUNNERS[ctx["experiment"]], "parameter of this experiment", ctx["operators"]
        return table.run, _read_table(params, table.fields, path, table.choice, what, window=window, registry=registry)
    if window is not None and window.kind != BILATERAL:
        raise ConfigError("window.kind", "a scenario runs on a bilateral window")
    if "id" not in params:
        raise ConfigError(_sub(path, "id"), "missing required field")
    scenario_id = _as_str(params["id"], _sub(path, "id"))
    if scenario_id not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(_sub(path, "id"), f"unknown scenario {scenario_id!r} (known: {known})")
    params = {key: value for key, value in params.items() if key != "id"}
    if window is not None and "m" not in params:
        params["m"] = window.m
    table = SCENARIOS[scenario_id]
    return table.run, _Scenario(_read_table(params, table.fields, path, None, "parameter of this scenario"), params)


def _read_output(value: Any, path: str, ctx: Mapping | None = None) -> dict:
    fields = dict.fromkeys(("json_path", "csv_path", "plot_dir"), _Field(_as_str, None))
    return _read_table(value, fields, path, None, "field of this output section")


# a config is itself a table; main reads its output section before the run too
_CONFIG = {
    "experiment": _Field(_Choice({name: name for name in (*_RUNNERS, "scenario")}, "experiment")),
    "window": _Field(build_window, lambda ctx: None if ctx["experiment"] == "scenario" else _REQUIRED),
    "operators": _Field(lambda value, path, ctx: build_operators(value, ctx["window"], path), {}, tuple(_RUNNERS)),
    "parameters": _Field(_read_parameters, {}),
    "output": _Field(_read_output, {}),
}


def run(cfg: dict) -> tuple[RunOutcome, dict]:
    """Run the configured experiment; returns the outcome and the full report.

    The whole config is read and checked before anything is computed."""
    config = _read_table(cfg, _CONFIG, "", "experiment", "field of this config")
    runner, values = config["parameters"]
    # the run's scans and checks share each operator's stacks of powers
    with shared_stacks():
        outcome = runner(values)

    report = {
        "tool": {"name": "disklab", "version": __version__},
        "created": datetime.now(timezone.utc).isoformat(),
        "experiment": config["experiment"],
        "verdict": outcome.verdict,
        "exit_code": outcome.exit_code,
        "seed": values.get("seed", 0),
        "config": _jsonable(cfg),
        "results": _jsonable(outcome.results),
        "curves": {
            name: {"header": list(header), "rows": _jsonable(rows)}
            for name, (header, rows) in outcome.tables.items()
        },
    }
    return outcome, report


def _write_csv(path: Path, table: Table) -> None:
    header, rows = table
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def emit_plotdata(outcome: RunOutcome, directory: str | Path) -> list[Path]:
    """Write one CSV per table; byte-identical across runs with the same seed."""
    out_dir = Path(directory)
    paths = []
    for name, table in outcome.tables.items():
        path = out_dir / f"lab_{name}.csv"
        _write_csv(path, table)
        paths.append(path)
    return paths


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Run one configured experiment and write its report.",
    )
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field by dotted path; value parses as JSON",
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.override)
        # checked before the run, so a bad output section costs no computation
        output = _read_output(cfg.get("output", {}), "output")
        outcome, report = run(cfg)
        # strict JSON: a non-finite value is an error before any file is written
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR

    # all writes happen here, after the run has fully settled
    if output["json_path"]:
        path = Path(output["json_path"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    if output["csv_path"] and outcome.tables:
        first = next(iter(outcome.tables.values()))
        _write_csv(Path(output["csv_path"]), first)
    if output["plot_dir"]:
        emit_plotdata(outcome, output["plot_dir"])
    print(f"{report['experiment']}: {outcome.verdict} (exit {outcome.exit_code})")
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
