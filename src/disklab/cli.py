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
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .criteria import (
    CriterionData,
    CriterionError,
    SpectralSplit,
    check_compound_scalar_free,
    check_compound_scaled,
    check_scalar_free_criterion,
    check_scaled_criterion,
    make_vector_sampler,
    roundtrip_scalar_derivation,
    spectral_witness,
)
from .hitsolver import DISK, FIXED, HIT, MISS_CERTIFIED, Certificate, HitProblem, solve_hit
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
# typed readers; every one is called as read(value, path) and names the
# offending field on failure

Reader = Callable[[Any, str], Any]


def _reader(
    expected: str, accepts: Callable[[Any], bool], convert: Callable | None = None, show=repr
) -> Reader:
    def read(value: Any, path: str) -> Any:
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

    def read(value: Any, path: str) -> int:
        n = _as_int(value, path)
        if n < low:
            raise ConfigError(path, f"{what} must be at least {low}")
        return n

    return read


_as_size = _at_least(1, "window size")
_as_trials = _at_least(1, "trials")
_as_horizon = _at_least(1, "horizon")
_as_stop = _at_least(1, "stop")
_as_sample_count = _at_least(1, "sample_count")
_as_seed = _at_least(0, "seed")


def _items(read: Reader) -> Reader:
    """Reader of a list whose entries `read` takes, at paths path[i]."""
    return lambda value, path: [read(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path))]


def _int_keyed(read: Reader) -> Reader:
    """Reader of an object keyed by integer indices, values taken by `read`."""

    def read_table(value: Any, path: str) -> dict:
        out = {}
        for key, raw in _as_dict(value, path).items():
            try:
                idx = int(key)
            except ValueError:
                raise ConfigError(_sub(path, key), "keys must be integer indices") from None
            out[idx] = read(raw, _sub(path, key))
        return out

    return read_table


def _choice(options: Mapping, what: str) -> Reader:
    """Reader of a string naming one of the keys of `options`; returns its value."""

    def read(value: Any, path: str) -> Any:
        name = _as_str(value, path)
        if name not in options:
            raise ConfigError(path, f"unknown {what} {name!r}")
        return options[name]

    return read


_REQUIRED = object()  # the default of a field that must be given


def _sub(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _field(spec: Mapping, path: str, key: str, read: Reader, default: Any = _REQUIRED) -> Any:
    """spec[key] taken by `read` at path.key; a missing key takes the default.

    A field whose default is None is optional: missing or null, it reads as None.
    """
    value = spec.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(_sub(path, key), "missing required field")
    if value is None and default is None:
        return None
    return read(value, _sub(path, key))


def _fields(spec: Any, path: str, **table: tuple[Reader, Any]) -> dict:
    """Read the object at path, one key=(reader, default) entry per field."""
    spec = _as_dict(spec, path)
    return {key: _field(spec, path, key, read, default) for key, (read, default) in table.items()}


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


_WINDOW_KINDS = {"bilateral": BILATERAL, "unilateral": UNILATERAL}


def build_window(spec: Any, path: str = "window") -> IndexWindow:
    kind, m = _fields(
        spec, path, kind=(_choice(_WINDOW_KINDS, "window kind"), "bilateral"), m=(_as_size, _REQUIRED)
    ).values()
    return IndexWindow(kind, m)


def _build_weights(spec: dict, path: str) -> WeightProfile:
    pos = _field(spec, path, "pos", _as_float)
    neg, table = _fields(spec, path, neg=(_as_float, pos), table=(_int_keyed(_as_float), {})).values()
    for where, w in [("pos", pos), ("neg", neg)] + [(k, v) for k, v in table.items()]:
        if w <= 0:
            raise ConfigError(_sub(path, str(where)), "weights must be positive")
    return WeightProfile(pos, neg, table)


def _build_diagonal(spec: dict, path: str, window: IndexWindow) -> Diagonal:
    entries, default = _fields(
        spec, path, entries=(_int_keyed(_as_complex), _REQUIRED), default=(_as_complex, None)
    ).values()
    return Diagonal(entries, default)


def _build_dense(spec: dict, path: str, window: IndexWindow) -> Dense:
    mat = np.array(_field(spec, path, "matrix", _items(_items(_as_complex))), dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(_sub(path, "matrix"), "matrix must be square")
    if mat.shape[0] != window.dim:
        raise ConfigError(
            _sub(path, "matrix"),
            f"matrix is {mat.shape[0]}x{mat.shape[1]} but the window holds {window.dim} coordinates",
        )
    return Dense(mat)


# builders of the plain operator types, called as build(spec, path, window)
_OPERATOR_BUILDERS = {
    "forward_shift": lambda spec, path, window: ForwardShift(_build_weights(spec, path)),
    "backward_shift": lambda spec, path, window: BackwardShift(_build_weights(spec, path)),
    "diagonal": _build_diagonal,
    "scalar": lambda spec, path, window: Scalar(_field(spec, path, "value", _as_complex)),
    "dense": _build_dense,
}


def build_operators(spec: Any, window: IndexWindow, path: str = "operators") -> dict:
    registry: dict = {}
    deferred = []
    for name, op_spec in _as_dict(spec, path).items():
        op_path = _sub(path, name)
        op_spec = _as_dict(op_spec, op_path)
        kind = _field(op_spec, op_path, "type", _as_str)
        if kind == "direct_sum":
            deferred.append((op_spec, name, op_path))
        elif kind in _OPERATOR_BUILDERS:
            registry[name] = _OPERATOR_BUILDERS[kind](op_spec, op_path, window)
        else:
            raise ConfigError(_sub(op_path, "type"), f"unknown operator type {kind!r}")
    # direct sums resolve after the plain operators they reference
    for op_spec, name, op_path in deferred:
        parts = _field(op_spec, op_path, "parts", _items(_choice(registry, "operator")))
        registry[name] = DirectSum(tuple(parts))
    return registry


def build_vector(spec: Any, window: IndexWindow, path: str) -> ComplexVector:
    spec = _as_dict(spec, path)
    if "basis" in spec:
        j, scale = _fields(spec, path, basis=(_as_int, _REQUIRED), scale=(_as_complex, 1.0)).values()
        if not window.contains(j):
            raise ConfigError(_sub(path, "basis"), f"index {j} falls outside the window")
        return ComplexVector.basis(window, j, scale)
    if "coeffs" in spec:
        table = _field(spec, path, "coeffs", _int_keyed(_as_complex))
        for idx in table:
            if not window.contains(idx):
                raise ConfigError(_sub(path, "coeffs"), f"index {idx} falls outside the window")
        return ComplexVector.from_coeffs(window, table)
    raise ConfigError(path, "vector needs either a 'basis' index or a 'coeffs' table")


def build_ball(spec: Any, window: IndexWindow, path: str) -> Ball:
    center, radius = _fields(
        spec, path, center=(lambda v, p: build_vector(v, window, p), _REQUIRED), radius=(_as_float, _REQUIRED)
    ).values()
    if radius <= 0:
        raise ConfigError(_sub(path, "radius"), "radius must be positive")
    return Ball(center, radius)


def build_product_ball(spec: Any, window: IndexWindow, path: str, arity: int) -> ProductBall:
    items = _as_list(spec, path)
    if len(items) != arity:
        raise ConfigError(path, f"expected {arity} balls (one per component), got {len(items)}")
    return ProductBall(tuple(build_ball(b, window, f"{path}[{i}]") for i, b in enumerate(items)))


def _resolve_components(params: dict, registry: dict, path: str) -> tuple:
    names = _field(params, path, "components", lambda v, p: [v] if isinstance(v, str) else v)
    comps = tuple(_items(_choice(registry, "operator"))(names, _sub(path, "components")))
    if not comps:
        raise ConfigError(_sub(path, "components"), "needs at least one operator")
    return comps


def _mode_and_alphas(params: dict, arity: int, path: str) -> tuple[str, tuple | None]:
    mode = _field(params, path, "mode", _as_str, DISK)
    if mode not in (DISK, FIXED):
        raise ConfigError(_sub(path, "mode"), f"mode must be 'disk' or 'fixed', got {mode!r}")
    if mode == DISK:
        return mode, None
    return mode, tuple(_field(params, path, "alphas", _items(_as_complex), [1.0] * arity))


def _scan_inputs(
    params: dict, registry: dict, window: IndexWindow, path: str, balls=("sources", "targets")
) -> tuple:
    """Components, their arity, the two ball tuples named by `balls`, mode and alphas."""
    comps = _resolve_components(params, registry, path)
    arity = len(components_of(comps))
    first, second = (
        _field(params, path, key, lambda v, p: build_product_ball(v, window, p, arity)) for key in balls
    )
    return (comps, arity, first, second) + _mode_and_alphas(params, arity, path)


_SAMPLER_FIELDS = {
    "radius": _as_float, "support": _as_int, "bound": _as_float, "band": _as_int, "modulus_lo": _as_float
}


def _sampler_kwargs(params: dict, path: str, with_radius: bool) -> dict:
    sampler_path = _sub(path, "sampler")
    spec = _field(params, path, "sampler", _as_dict, {})
    for key in spec:
        if key not in _SAMPLER_FIELDS:
            raise ConfigError(_sub(sampler_path, key), f"unknown sampler field {key!r}")
    if not with_radius and "radius" in spec:
        raise ConfigError(_sub(sampler_path, "radius"), "radius applies only to ball samplers")
    return {key: _SAMPLER_FIELDS[key](value, _sub(sampler_path, key)) for key, value in spec.items()}


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


def _run_orbit(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps = components_of(_resolve_components(params, registry, path))
    if len(comps) != 1:
        raise ConfigError(_sub(path, "components"), "orbit takes exactly one operator")
    x, horizon = _fields(
        params, path, vector=(lambda v, p: build_vector(v, window, p), _REQUIRED), horizon=(_as_int, 40)
    ).values()
    norms = disk_orbit_norms(comps[0], x, horizon)
    table: Table = (("n", "norm"), [(n, float(v)) for n, v in enumerate(norms)])
    results = {"norms": [float(v) for v in norms], "horizon": horizon}
    return _outcome("pass", results, {"orbit": table})


def _run_hit(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps, arity, sources, targets, mode, alphas = _scan_inputs(params, registry, window, path)
    n = _field(params, path, "n", _as_int)
    result = solve_hit(HitProblem(comps, n, sources, targets, mode, alphas))
    results: dict = {"status": result.status, "n": n, "max_kkt_residual": result.max_kkt_residual}
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


def _run_junction(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps, arity, sources, targets, mode, alphas = _scan_inputs(params, registry, window, path)
    horizon = _field(params, path, "horizon", _as_horizon, 40)
    rep = junction_scan(comps, sources, targets, horizon, mode, alphas)
    return _outcome(_scan_verdict(rep), {"scan": _scan_payload(rep)}, {"scan": _scan_table(rep, arity)})


def _run_cross(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps, arity, a, b, mode, alphas = _scan_inputs(params, registry, window, path, ("a", "b"))
    horizon = _field(params, path, "horizon", _as_horizon, 40)
    rep = cross_scan(comps, a, b, horizon, mode, alphas)
    scans = {"forward_scan": rep.forward_report, "backward_scan": rep.backward_report}
    results = {name: sorted(getattr(rep, name)) for name in ("forward", "backward", "junction")}
    results.update((name, _scan_payload(scan)) for name, scan in scans.items())
    tables = {name: _scan_table(scan, arity) for name, scan in scans.items()}
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


_DETECT_KINDS = {kind: kind for kind in (DISK_TRANSITIVE, K_BITRANSITIVE, COMPOUND, MIXING)}


def _run_detect(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps = _resolve_components(params, registry, path)
    kind = _field(params, path, "kind", _choice(_DETECT_KINDS, "kind"))
    options = _fields(params, path, trials=(_as_trials, 20), horizon=(_as_horizon, 40), seed=(_as_seed, 0))
    kwargs = _sampler_kwargs(params, path, with_radius=True)
    sampler = make_ball_sampler(window, len(components_of(comps)), **kwargs)
    verdict = detect(kind, comps, sampler, **options)
    return _outcome(verdict.verdict, {"detect": asdict(verdict)}, {"trials": _trials_table(verdict)})


def _criterion_nk(params: dict, path: str) -> tuple[int, ...]:
    raw = params.get("nk", {"start": 1, "stop": 40})
    if isinstance(raw, dict):
        start, stop = _fields(raw, _sub(path, "nk"), start=(_as_int, 1), stop=(_as_int, _REQUIRED)).values()
        return tuple(range(start, stop + 1))
    return tuple(_items(_as_int)(raw, _sub(path, "nk")))


def _criterion_lambdas(params: dict, arity: int, steps: int, path: str) -> tuple | None:
    rows = _field(params, path, "lambdas", _items(_items(_as_complex)), None)
    if rows is None:
        return None
    if len(rows) != arity:
        raise ConfigError(_sub(path, "lambdas"), f"expected one row per component ({arity}), got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != steps:
            raise ConfigError(f"{path}.lambdas[{i}]", f"expected {steps} scalars, got {len(row)}")
    return tuple(tuple(row) for row in rows)


_CRITERION_VARIANTS = ("scaled", "scalar_free", "roundtrip", "compound_scaled", "compound_scalar_free")


def _criterion_outcome(report) -> RunOutcome:
    results = {"criterion": _criterion_payload(report)}
    return _outcome("pass" if report.passed else "fail", results, {"criterion": _criterion_table(report)})


def _run_criterion(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps = components_of(_resolve_components(params, registry, path))
    variant = _field(params, path, "variant", _as_str, "scalar_free")
    if variant not in _CRITERION_VARIANTS:
        raise ConfigError(_sub(path, "variant"), f"unknown variant {variant!r}")
    compound = variant.startswith("compound_")
    if compound and len(comps) != 1:
        raise ConfigError(_sub(path, "components"), "compound variants take exactly one operator")
    arity = len(comps)
    # the counts and pair samplers every variant's data takes
    shared = _fields(params, path, tol=(_as_float, 1e-6), sample_count=(_as_sample_count, 25), seed=(_as_seed, 0))
    kwargs = _sampler_kwargs(params, path, with_radius=False)
    shared.update((key, make_vector_sampler(window, arity, **kwargs)) for key in ("xsampler", "ysampler"))

    if compound:
        horizon = _field(params, path, "horizon", _as_horizon, 40)
        lambdas = _criterion_lambdas(params, 1, horizon, path)
        nk, smaps = tuple(range(1, horizon + 1)), (right_inverse(comps[0]),)
    else:
        if variant == "scaled" and "lambdas" not in params:
            raise ConfigError(_sub(path, "lambdas"), "the scaled variant needs explicit scalars")
        nk = _criterion_nk(params, path)
        smaps = tuple(right_inverse(c) for c in comps)
        lambdas = _criterion_lambdas(params, arity, len(nk), path)
    data = CriterionData(components=comps, smaps=smaps, nk=nk, lambdas=lambdas, **shared)
    if variant == "roundtrip":
        eps = _field(params, path, "eps", _as_float, 0.1)
        rt = roundtrip_scalar_derivation(data, eps)
        results = {
            "roundtrip": {
                "passed": rt.passed,
                "tol": rt.tol,
                "eps": eps,
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
    return _criterion_outcome(check(data))


class _Choice(NamedTuple):
    """The parameter that picks a runner's mode or variant, and the keys that
    only some of its choices read; every choice is the default or reads one."""

    key: str
    default: str
    readers: Mapping[str, tuple[str, ...]]  # key -> the choices that read it


_MODE_KEYS = _Choice("mode", DISK, {"alphas": (FIXED,)})
_VARIANT_KEYS = _Choice(
    "variant",
    "scalar_free",
    {
        "nk": ("scaled", "scalar_free", "roundtrip"),
        "lambdas": ("scaled", "compound_scaled"),
        "eps": ("roundtrip",),
        "horizon": ("compound_scaled", "compound_scalar_free"),
    },
)

# each runner with the parameters it reads over all its modes or variants,
# `seed` among them (run() reads it for every report), and the choice that
# narrows them
_RUNNERS = {
    "orbit": (_run_orbit, ("components", "vector", "horizon", "seed"), None),
    "hit": (_run_hit, ("components", "sources", "targets", "mode", "alphas", "n", "seed"), _MODE_KEYS),
    "junction": (
        _run_junction,
        ("components", "sources", "targets", "mode", "alphas", "horizon", "seed"),
        _MODE_KEYS,
    ),
    "cross": (_run_cross, ("components", "a", "b", "mode", "alphas", "horizon", "seed"), _MODE_KEYS),
    "detect": (_run_detect, ("components", "kind", "trials", "horizon", "seed", "sampler"), None),
    "criterion": (
        _run_criterion,
        ("components", "variant", "tol", "sample_count", "seed", "sampler", "nk", "lambdas", "horizon", "eps"),
        _VARIANT_KEYS,
    ),
}


def _check_keys(params: Mapping[str, Any], takes: Sequence[str], what: str, choice: _Choice | None = None) -> None:
    """Reject, before the run, the first parameter key the experiment or
    scenario does not read, or that its chosen mode or variant does not read,
    so a misspelt or stale key cannot pass unnoticed.  An unknown mode or
    variant is left for the runner to report."""
    for key in params:
        if key not in takes:
            listed = ", ".join(sorted(takes))
            raise ConfigError(_sub("parameters", key), f"not a parameter of this {what}; it takes {listed}")
        if choice is None or key not in choice.readers:
            continue
        picked = params.get(choice.key, choice.default)
        known = picked == choice.default or any(picked in names for names in choice.readers.values())
        if known and picked not in choice.readers[key]:
            readers = ", ".join(choice.readers[key])
            raise ConfigError(
                _sub("parameters", key), f"not read when {choice.key} is {picked!r}; only {choice.key} {readers} reads it"
            )


# ---------------------------------------------------------------------------
# scenarios: named end-to-end studies with fixed defaults, composed from the
# experiment runners above on two fixed shifts


_SCENARIO_FIELDS = {
    "m": _as_size,
    "trials": _as_trials,
    "horizon": _as_horizon,
    "stop": _as_stop,
    "sample_count": _as_sample_count,
    "seed": _as_seed,
    **dict.fromkeys(("radius", "eps", "tol", "p", "delta"), _as_float),
    **dict.fromkeys(("small_entry", "large_entry", "c"), _as_complex),
}


class _Scenario:
    """A scenario's parameters, read up front with the scenario's defaults,
    and what it runs on: the weighted shifts t1 = (2, 3) and t2 = (2, 4) on
    the bilateral window of size m."""

    def __init__(self, params: dict, **defaults: Any):
        _check_keys({key: v for key, v in params.items() if key != "id"}, list(defaults), "scenario")
        table = {key: (_SCENARIO_FIELDS[key], default) for key, default in defaults.items()}
        self.params = _fields(params, "parameters", **table)
        self.window = IndexWindow(BILATERAL, self.params["m"])
        self.registry = {"t1": ForwardShift(WeightProfile(2.0, 3.0)), "t2": ForwardShift(WeightProfile(2.0, 4.0))}

    def __getitem__(self, key: str) -> Any:
        return self.params[key]

    def run(self, runner: Callable[..., RunOutcome], **params: Any) -> RunOutcome:
        return runner(params, self.registry, self.window, "parameters")

    def criterion(self, components: list[str], variant: str = "scalar_free", **extra: Any) -> RunOutcome:
        counts = {key: self[key] for key in ("tol", "sample_count", "seed")}
        return self.run(
            _run_criterion, components=components, variant=variant, nk={"stop": self["stop"]}, sampler={"band": 1},
            **counts, **extra,
        )


def _single(mapping: dict) -> Any:
    """The value of a runner's one-entry results or tables."""
    (value,) = mapping.values()
    return value


def _scenario_shift_compound_not_mixing(params: dict) -> RunOutcome:
    s = _Scenario(params, m=64, horizon=40, trials=5, seed=0, radius=0.45)
    ball = [{"center": {"basis": 0}, "radius": 0.5}]
    scan = {"components": ["t1"], "horizon": s["horizon"], "sources": ball, "targets": ball}
    disk = s.run(_run_junction, **scan)
    fixed = s.run(_run_junction, **scan, mode=FIXED, alphas=[1.0])
    trials = {"components": ["t1"], "trials": s["trials"], "horizon": s["horizon"], "seed": s["seed"]}
    sampler = {"radius": s["radius"], "band": 1}
    compound = s.run(_run_detect, kind=COMPOUND, sampler=sampler, **trials)
    mixing = s.run(_run_detect, kind=MIXING, sampler=sampler, **trials)
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


def _scenario_diagonal_spectral_split(params: dict) -> RunOutcome:
    s = _Scenario(params, m=4, small_entry=0.5, large_entry=2.0, p=1.0, c=1.5, eps=0.1, delta=0.1, horizon=60)
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


def _scenario_cross_junction_equivalence(params: dict) -> RunOutcome:
    s = _Scenario(params, m=32, horizon=15, trials=5, seed=0, radius=0.45)
    comps = (s.registry["t1"], s.registry["t2"])
    sampler = make_ball_sampler(s.window, 2, radius=s["radius"], band=1)
    per_trial = []
    for t, (sources, targets) in enumerate(trial_draws(s["seed"], s["trials"], (sampler, sampler))):
        joint = junction_scan(comps, sources, targets, s["horizon"])
        parts = [
            junction_scan([op], ProductBall((source,)), ProductBall((target,)), s["horizon"])
            for op, source, target in zip(comps, sources.balls, targets.balls)
        ]
        meet = parts[0].hit_set & parts[1].hit_set
        per_trial.append({"trial": t, "joint": sorted(joint.hit_set), "intersection": sorted(meet)})
    mismatches = [d["trial"] for d in per_trial if d["joint"] != d["intersection"]]
    results = {"equivalent": not mismatches, "mismatching_trials": mismatches, "per_trial": per_trial}
    table: Table = (
        ("trial", "joint_hits", "component_intersection"),
        [(d["trial"], " ".join(map(str, d["joint"])), " ".join(map(str, d["intersection"]))) for d in per_trial],
    )
    return _outcome("pass" if not mismatches else "fail", results, {"trials": table})


def _scenario_scalar_derivation_roundtrip(params: dict) -> RunOutcome:
    s = _Scenario(params, m=64, stop=40, eps=0.1, seed=0, sample_count=10, tol=1e-6)
    outcome = s.criterion(["t1"], "roundtrip", eps=s["eps"])
    rt = outcome.results["roundtrip"]
    results = {key: rt[key] for key in ("passed", "tol", "scaled_passes", "tail_indices")}
    return replace(outcome, results=dict(results, scalar_free_passed=rt["scalar_free"]["passed"]))


def _scenario_compound_plus_transitive(params: dict) -> RunOutcome:
    s = _Scenario(params, m=64, horizon=40, trials=20, seed=0, radius=0.45)
    sampler = make_ball_sampler(s.window, 1, radius=s["radius"], band=1)
    per_trial = []
    for t, balls in enumerate(trial_draws(s["seed"], s["trials"], (sampler,) * 4)):
        hits1 = junction_scan([s.registry["t1"]], balls[0], balls[1], s["horizon"]).hit_set
        hits2 = junction_scan([s.registry["t2"]], balls[2], balls[3], s["horizon"]).hit_set
        per_trial.append({"trial": t, "common": sorted(hits1 & hits2)})
    empty = [d["trial"] for d in per_trial if not d["common"]]
    results = {"all_nonempty": not empty, "empty_trials": empty, "per_trial": per_trial}
    table: Table = (
        ("trial", "common_powers"),
        [(d["trial"], " ".join(map(str, d["common"]))) for d in per_trial],
    )
    return _outcome(CONFIRMED if not empty else INCONCLUSIVE, results, {"trials": table})


def _scenario_direct_sum_diskcyclic_criterion(params: dict) -> RunOutcome:
    s = _Scenario(params, m=64, stop=40, trials=10, horizon=40, seed=0, tol=1e-6, sample_count=10)
    component_criteria = [s.criterion([name]).results["criterion"]["passed"] for name in ("t1", "t2")]
    direct_sum = s.criterion(["t1", "t2"])
    paired = s.run(
        _run_detect, components=["t1", "t2"], kind=K_BITRANSITIVE, trials=s["trials"], horizon=s["horizon"],
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


SCENARIOS: dict[str, Callable[[dict], RunOutcome]] = {
    "shift-compound-not-mixing": _scenario_shift_compound_not_mixing,
    "diagonal-spectral-split": _scenario_diagonal_spectral_split,
    "cross-junction-equivalence": _scenario_cross_junction_equivalence,
    "scalar-derivation-roundtrip": _scenario_scalar_derivation_roundtrip,
    "compound-plus-transitive": _scenario_compound_plus_transitive,
    "direct-sum-diskcyclic-criterion": _scenario_direct_sum_diskcyclic_criterion,
}


def _run_scenario(cfg: dict, params: dict) -> RunOutcome:
    scenario_id = _field(params, "parameters", "id", _as_str)
    if scenario_id not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError("parameters.id", f"unknown scenario {scenario_id!r} (known: {known})")
    if "window" in cfg and "m" not in params:
        params = dict(params, m=_field(_as_dict(cfg["window"], "window"), "window", "m", _as_size))
    return SCENARIOS[scenario_id](params)


def run(cfg: dict) -> tuple[RunOutcome, dict]:
    """Run the configured experiment; returns the outcome and the full report."""
    experiment = _field(cfg, "", "experiment", _as_str)
    if experiment not in _RUNNERS and experiment != "scenario":
        raise ConfigError("experiment", f"unknown experiment {experiment!r}")
    params = _field(cfg, "", "parameters", _as_dict, {})
    if experiment == "scenario":
        outcome = _run_scenario(cfg, params)
    else:
        runner, takes, choice = _RUNNERS[experiment]
        _check_keys(params, takes, "experiment", choice)
        window = _field(cfg, "", "window", build_window)
        registry = build_operators(cfg.get("operators", {}), window)
        outcome = runner(params, registry, window, "parameters")

    report = {
        "tool": {"name": "disklab", "version": __version__},
        "created": datetime.now(timezone.utc).isoformat(),
        "experiment": experiment,
        "verdict": outcome.verdict,
        "exit_code": outcome.exit_code,
        "seed": _field(params, "parameters", "seed", _as_seed, 0),
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
        paths = dict.fromkeys(("json_path", "csv_path", "plot_dir"), (_as_str, None))
        output = _fields(cfg.get("output", {}), "output", **paths)
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
