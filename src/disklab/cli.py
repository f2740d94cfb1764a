"""Config-driven laboratory runs.

A run is described by one JSON file: a truncation window, named operators,
one experiment, and its parameters.  The runner writes a JSON report (and
optional CSV tables) and exits 0 when the experiment confirms or passes,
2 when it refutes or fails, 3 when it stays inconclusive, 1 on any
configuration or runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .criteria import (
    CompoundData,
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
from .hitsolver import DISK, FIXED, HIT, MISS_CERTIFIED, HitProblem, solve_hit
from .operators import (
    BackwardShift,
    Dense,
    Diagonal,
    DirectSum,
    EigenPair,
    ForwardShift,
    Scalar,
    WeightProfile,
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
# typed readers; every one names the offending field on failure


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {type(value).__name__}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {type(value).__name__}")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _as_complex(value: Any, path: str) -> complex:
    # numbers are real scalars; [re, im] pairs carry a phase
    if isinstance(value, bool):
        raise ConfigError(path, f"expected a number or [re, im] pair, got {value!r}")
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        re, im = value
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            return complex(re, im)
    raise ConfigError(path, f"expected a number or [re, im] pair, got {value!r}")


def _get(cfg: Mapping, key: str, path: str) -> Any:
    if key not in cfg:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return cfg[key]


def _sub(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


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
    spec = _as_dict(spec, path)
    kind_name = _as_str(spec.get("kind", "bilateral"), _sub(path, "kind"))
    if kind_name not in _WINDOW_KINDS:
        raise ConfigError(_sub(path, "kind"), f"unknown window kind {kind_name!r}")
    m = _as_int(_get(spec, "m", path), _sub(path, "m"))
    if m < 1:
        raise ConfigError(_sub(path, "m"), "window size must be at least 1")
    return IndexWindow(_WINDOW_KINDS[kind_name], m)


def _int_keyed(table: Any, path: str, value_of: Callable[[Any, str], Any]) -> dict:
    table = _as_dict(table, path)
    out = {}
    for key, raw in table.items():
        try:
            idx = int(key)
        except ValueError:
            raise ConfigError(_sub(path, key), "keys must be integer indices") from None
        out[idx] = value_of(raw, _sub(path, key))
    return out


def _build_weights(spec: dict, path: str) -> WeightProfile:
    pos = _as_float(_get(spec, "pos", path), _sub(path, "pos"))
    neg = _as_float(spec.get("neg", pos), _sub(path, "neg"))
    table = _int_keyed(spec.get("table", {}), _sub(path, "table"), _as_float)
    for where, w in [("pos", pos), ("neg", neg)] + [(k, v) for k, v in table.items()]:
        if w <= 0:
            raise ConfigError(_sub(path, str(where)), "weights must be positive")
    return WeightProfile(pos, neg, table)


def build_operators(spec: Any, window: IndexWindow, path: str = "operators") -> dict:
    spec = _as_dict(spec, path)
    registry: dict = {}
    deferred = []
    for name, op_spec in spec.items():
        op_path = _sub(path, name)
        op_spec = _as_dict(op_spec, op_path)
        kind = _as_str(_get(op_spec, "type", op_path), _sub(op_path, "type"))
        if kind == "forward_shift":
            registry[name] = ForwardShift(_build_weights(op_spec, op_path))
        elif kind == "backward_shift":
            registry[name] = BackwardShift(_build_weights(op_spec, op_path))
        elif kind == "diagonal":
            entries = _int_keyed(_get(op_spec, "entries", op_path), _sub(op_path, "entries"), _as_complex)
            default = op_spec.get("default")
            if default is not None:
                default = _as_complex(default, _sub(op_path, "default"))
            registry[name] = Diagonal(entries, default)
        elif kind == "scalar":
            registry[name] = Scalar(_as_complex(_get(op_spec, "value", op_path), _sub(op_path, "value")))
        elif kind == "dense":
            rows = _as_list(_get(op_spec, "matrix", op_path), _sub(op_path, "matrix"))
            mat = np.array(
                [
                    [_as_complex(v, f"{op_path}.matrix[{i}][{j}]") for j, v in enumerate(_as_list(row, f"{op_path}.matrix[{i}]"))]
                    for i, row in enumerate(rows)
                ],
                dtype=np.complex128,
            )
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ConfigError(_sub(op_path, "matrix"), "matrix must be square")
            if mat.shape[0] != window.dim:
                raise ConfigError(
                    _sub(op_path, "matrix"),
                    f"matrix is {mat.shape[0]}x{mat.shape[1]} but the window holds {window.dim} coordinates",
                )
            registry[name] = Dense(mat)
        elif kind == "direct_sum":
            parts = [_as_str(p, f"{op_path}.parts[{i}]") for i, p in enumerate(_as_list(_get(op_spec, "parts", op_path), _sub(op_path, "parts")))]
            deferred.append((name, parts, op_path))
        else:
            raise ConfigError(_sub(op_path, "type"), f"unknown operator type {kind!r}")
    # direct sums resolve after the plain operators they reference
    for name, parts, op_path in deferred:
        comps = []
        for i, part in enumerate(parts):
            if part not in registry:
                raise ConfigError(f"{op_path}.parts[{i}]", f"unknown operator {part!r}")
            comps.append(registry[part])
        registry[name] = DirectSum(tuple(comps))
    return registry


def build_vector(spec: Any, window: IndexWindow, path: str) -> ComplexVector:
    spec = _as_dict(spec, path)
    if "basis" in spec:
        j = _as_int(spec["basis"], _sub(path, "basis"))
        if not window.contains(j):
            raise ConfigError(_sub(path, "basis"), f"index {j} falls outside the window")
        scale = _as_complex(spec.get("scale", 1.0), _sub(path, "scale"))
        return ComplexVector.basis(window, j, scale)
    if "coeffs" in spec:
        table = _int_keyed(spec["coeffs"], _sub(path, "coeffs"), _as_complex)
        for idx in table:
            if not window.contains(idx):
                raise ConfigError(_sub(path, "coeffs"), f"index {idx} falls outside the window")
        return ComplexVector.from_coeffs(window, table)
    raise ConfigError(path, "vector needs either a 'basis' index or a 'coeffs' table")


def build_ball(spec: Any, window: IndexWindow, path: str) -> Ball:
    spec = _as_dict(spec, path)
    center = build_vector(_get(spec, "center", path), window, _sub(path, "center"))
    radius = _as_float(_get(spec, "radius", path), _sub(path, "radius"))
    if radius <= 0:
        raise ConfigError(_sub(path, "radius"), "radius must be positive")
    return Ball(center, radius)


def build_product_ball(spec: Any, window: IndexWindow, path: str, arity: int) -> ProductBall:
    items = _as_list(spec, path)
    if len(items) != arity:
        raise ConfigError(path, f"expected {arity} balls (one per component), got {len(items)}")
    return ProductBall(tuple(build_ball(b, window, f"{path}[{i}]") for i, b in enumerate(items)))


def _resolve_components(params: dict, registry: dict, path: str) -> tuple:
    names = _get(params, "components", path)
    if isinstance(names, str):
        names = [names]
    names = [_as_str(n, f"{path}.components[{i}]") for i, n in enumerate(_as_list(names, _sub(path, "components")))]
    comps = []
    for i, name in enumerate(names):
        if name not in registry:
            raise ConfigError(f"{path}.components[{i}]", f"unknown operator {name!r}")
        comps.append(registry[name])
    if not comps:
        raise ConfigError(_sub(path, "components"), "needs at least one operator")
    return tuple(comps)


def _component_arity(comps: Sequence) -> int:
    if len(comps) == 1 and isinstance(comps[0], DirectSum):
        return len(comps[0].components)
    return len(comps)


def _mode_and_alphas(params: dict, arity: int, path: str) -> tuple[str, tuple | None]:
    mode = _as_str(params.get("mode", DISK), _sub(path, "mode"))
    if mode not in (DISK, FIXED):
        raise ConfigError(_sub(path, "mode"), f"mode must be 'disk' or 'fixed', got {mode!r}")
    alphas = None
    if mode == FIXED:
        raw = params.get("alphas", [1.0] * arity)
        items = _as_list(raw, _sub(path, "alphas"))
        alphas = tuple(_as_complex(v, f"{path}.alphas[{i}]") for i, v in enumerate(items))
    return mode, alphas


_SAMPLER_KEYS = {"radius", "support", "bound", "band", "modulus_lo"}


def _sampler_kwargs(params: dict, path: str, with_radius: bool) -> dict:
    spec = _as_dict(params.get("sampler", {}), _sub(path, "sampler"))
    for key in spec:
        if key not in _SAMPLER_KEYS:
            raise ConfigError(f"{path}.sampler.{key}", f"unknown sampler field {key!r}")
    out: dict = {}
    if "support" in spec:
        out["support"] = _as_int(spec["support"], f"{path}.sampler.support")
    if "bound" in spec:
        out["bound"] = _as_float(spec["bound"], f"{path}.sampler.bound")
    if "band" in spec:
        out["band"] = _as_int(spec["band"], f"{path}.sampler.band")
    if "modulus_lo" in spec:
        out["modulus_lo"] = _as_float(spec["modulus_lo"], f"{path}.sampler.modulus_lo")
    if with_radius and "radius" in spec:
        out["radius"] = _as_float(spec["radius"], f"{path}.sampler.radius")
    if not with_radius and "radius" in spec:
        raise ConfigError(f"{path}.sampler.radius", "radius applies only to ball samplers")
    return out


# ---------------------------------------------------------------------------
# run outcomes and report tables

Table = tuple[tuple[str, ...], list[tuple]]


@dataclass
class RunOutcome:
    verdict: str
    exit_code: int
    results: dict
    tables: dict[str, Table] = field(default_factory=dict)


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


def _scan_table(rep, arity: int) -> Table:
    header = ("n", "status") + tuple(f"abs_alpha_{i + 1}" for i in range(arity)) + ("residual",)
    rows = []
    for e in rep.entries:
        alphas = e.alphas if e.alphas is not None else (None,) * arity
        cells = [abs(a) if a is not None else "" for a in alphas]
        resid = max(e.residuals) if e.residuals else ""
        rows.append((e.n, e.status, *cells, resid))
    return header, rows


def _scan_payload(rep, arity: int) -> dict:
    return {
        "horizon": rep.horizon,
        "hit_set": sorted(rep.hit_set),
        "tail_start": rep.tail_start,
        "entries": [
            {
                "n": e.n,
                "status": e.status,
                "alphas": e.alphas,
                "residuals": e.residuals,
                "lower_bound": e.lower_bound,
                "bound_kind": e.bound_kind,
                "certified_component": e.certified_component,
            }
            for e in rep.entries
        ],
    }


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


def _verdict_payload(v) -> dict:
    return {
        "kind": v.kind,
        "verdict": v.verdict,
        "horizon": v.horizon,
        "refuting_trial": v.refuting_trial,
        "trials": [
            {
                "index": t.index,
                "first_hit": t.first_hit,
                "tail_start": t.tail_start,
                "hit_count": t.hit_count,
                "certified_all": t.certified_all,
                "certified_tail_from": t.certified_tail_from,
            }
            for t in v.trials
        ],
    }


def _trials_table(v) -> Table:
    header = ("trial", "first_hit", "tail_start", "hit_count", "certified_tail_from")
    rows = [
        (
            t.index,
            t.first_hit if t.first_hit is not None else "",
            t.tail_start if t.tail_start is not None else "",
            t.hit_count,
            t.certified_tail_from if t.certified_tail_from is not None else "",
        )
        for t in v.trials
    ]
    return header, rows


# ---------------------------------------------------------------------------
# experiment runners


def _run_orbit(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps = _resolve_components(params, registry, path)
    if len(comps) != 1:
        raise ConfigError(_sub(path, "components"), "orbit takes exactly one operator")
    x = build_vector(_get(params, "vector", path), window, _sub(path, "vector"))
    horizon = _as_int(params.get("horizon", 40), _sub(path, "horizon"))
    norms = disk_orbit_norms(comps[0], x, horizon)
    table: Table = (("n", "norm"), [(n, float(v)) for n, v in enumerate(norms)])
    results = {"norms": [float(v) for v in norms], "horizon": horizon}
    return RunOutcome("pass", EXIT_PASS, results, {"orbit": table})


def _run_hit(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps = _resolve_components(params, registry, path)
    arity = _component_arity(comps)
    n = _as_int(_get(params, "n", path), _sub(path, "n"))
    sources = build_product_ball(_get(params, "sources", path), window, _sub(path, "sources"), arity)
    targets = build_product_ball(_get(params, "targets", path), window, _sub(path, "targets"), arity)
    mode, alphas = _mode_and_alphas(params, arity, path)
    result = solve_hit(HitProblem(comps, n, sources, targets, mode, alphas))
    results: dict = {"status": result.status, "n": n, "max_kkt_residual": result.max_kkt_residual}
    if result.witness is not None:
        results["witness"] = {
            "alphas": result.witness.alphas,
            "residuals": result.witness.residuals,
            "points": [_vector_payload(p) for p in result.witness.point.parts],
        }
    if result.lower_bound is not None:
        results["lower_bound"] = result.lower_bound
        results["bound_kind"] = result.bound_kind
        results["certified_component"] = result.certified_component
    if result.best_residuals is not None:
        results["best_residuals"] = result.best_residuals
    exit_code = {HIT: EXIT_PASS, MISS_CERTIFIED: EXIT_FAIL}.get(result.status, EXIT_INCONCLUSIVE)
    verdict = {HIT: "pass", MISS_CERTIFIED: "fail"}.get(result.status, INCONCLUSIVE)
    return RunOutcome(verdict, exit_code, results)


def _scan_exit(rep) -> tuple[str, int]:
    if rep.hit_set:
        return "pass", EXIT_PASS
    if all(e.status == MISS_CERTIFIED for e in rep.entries if e.n >= 1):
        return "fail", EXIT_FAIL
    return INCONCLUSIVE, EXIT_INCONCLUSIVE


def _run_junction(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps = _resolve_components(params, registry, path)
    arity = _component_arity(comps)
    horizon = _as_int(params.get("horizon", 40), _sub(path, "horizon"))
    sources = build_product_ball(_get(params, "sources", path), window, _sub(path, "sources"), arity)
    targets = build_product_ball(_get(params, "targets", path), window, _sub(path, "targets"), arity)
    mode, alphas = _mode_and_alphas(params, arity, path)
    guard = _as_bool(params.get("guard", True), _sub(path, "guard"))
    rep = junction_scan(comps, sources, targets, horizon, mode, alphas, guard=guard)
    verdict, exit_code = _scan_exit(rep)
    return RunOutcome(verdict, exit_code, {"scan": _scan_payload(rep, arity)}, {"scan": _scan_table(rep, arity)})


def _run_cross(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps = _resolve_components(params, registry, path)
    arity = _component_arity(comps)
    horizon = _as_int(params.get("horizon", 40), _sub(path, "horizon"))
    a = build_product_ball(_get(params, "a", path), window, _sub(path, "a"), arity)
    b = build_product_ball(_get(params, "b", path), window, _sub(path, "b"), arity)
    mode, alphas = _mode_and_alphas(params, arity, path)
    guard = _as_bool(params.get("guard", True), _sub(path, "guard"))
    rep = cross_scan(comps, a, b, horizon, mode, alphas, guard=guard)
    results = {
        "forward": sorted(rep.forward),
        "backward": sorted(rep.backward),
        "junction": sorted(rep.junction),
        "forward_scan": _scan_payload(rep.forward_report, arity),
        "backward_scan": _scan_payload(rep.backward_report, arity),
    }
    tables = {
        "forward_scan": _scan_table(rep.forward_report, arity),
        "backward_scan": _scan_table(rep.backward_report, arity),
    }
    if rep.junction:
        verdict, exit_code = "pass", EXIT_PASS
    else:
        certified = {
            e.n
            for scan in (rep.forward_report, rep.backward_report)
            for e in scan.entries
            if e.n >= 1 and e.status == MISS_CERTIFIED
        }
        if certified == set(range(1, horizon + 1)):
            verdict, exit_code = "fail", EXIT_FAIL
        else:
            verdict, exit_code = INCONCLUSIVE, EXIT_INCONCLUSIVE
    return RunOutcome(verdict, exit_code, results, tables)


_DETECT_KINDS = {
    "disk_transitive": DISK_TRANSITIVE,
    "k_bitransitive": K_BITRANSITIVE,
    "compound": COMPOUND,
    "mixing": MIXING,
}


def _run_detect(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps = _resolve_components(params, registry, path)
    kind_name = _as_str(_get(params, "kind", path), _sub(path, "kind"))
    if kind_name not in _DETECT_KINDS:
        raise ConfigError(_sub(path, "kind"), f"unknown kind {kind_name!r}")
    arity = _component_arity(comps)
    trials = _as_int(params.get("trials", 20), _sub(path, "trials"))
    horizon = _as_int(params.get("horizon", 40), _sub(path, "horizon"))
    seed = _as_int(params.get("seed", 0), _sub(path, "seed"))
    tail_fraction = _as_float(params.get("tail_fraction", 0.5), _sub(path, "tail_fraction"))
    sampler = make_ball_sampler(window, arity, **_sampler_kwargs(params, path, with_radius=True))
    verdict = detect(
        _DETECT_KINDS[kind_name],
        comps,
        sampler,
        trials=trials,
        horizon=horizon,
        seed=seed,
        tail_fraction=tail_fraction,
    )
    return RunOutcome(
        verdict.verdict,
        _VERDICT_EXIT[verdict.verdict],
        {"detect": _verdict_payload(verdict)},
        {"trials": _trials_table(verdict)},
    )


def _criterion_nk(params: dict, path: str) -> tuple[int, ...]:
    raw = params.get("nk", {"start": 1, "stop": 40})
    if isinstance(raw, dict):
        start = _as_int(raw.get("start", 1), f"{path}.nk.start")
        stop = _as_int(_get(raw, "stop", _sub(path, "nk")), f"{path}.nk.stop")
        return tuple(range(start, stop + 1))
    items = _as_list(raw, _sub(path, "nk"))
    return tuple(_as_int(v, f"{path}.nk[{i}]") for i, v in enumerate(items))


def _criterion_lambdas(params: dict, arity: int, steps: int, path: str) -> tuple | None:
    raw = params.get("lambdas")
    if raw is None:
        return None
    rows = _as_list(raw, _sub(path, "lambdas"))
    if len(rows) != arity:
        raise ConfigError(_sub(path, "lambdas"), f"expected one row per component ({arity}), got {len(rows)}")
    out = []
    for i, row in enumerate(rows):
        items = _as_list(row, f"{path}.lambdas[{i}]")
        if len(items) != steps:
            raise ConfigError(f"{path}.lambdas[{i}]", f"expected {steps} scalars, got {len(items)}")
        out.append(tuple(_as_complex(v, f"{path}.lambdas[{i}][{j}]") for j, v in enumerate(items)))
    return tuple(out)


def _run_criterion(params: dict, registry: dict, window: IndexWindow, path: str) -> RunOutcome:
    comps = _resolve_components(params, registry, path)
    variant = _as_str(params.get("variant", "scalar_free"), _sub(path, "variant"))
    tol = _as_float(params.get("tol", 1e-6), _sub(path, "tol"))
    sample_count = _as_int(params.get("sample_count", 25), _sub(path, "sample_count"))
    seed = _as_int(params.get("seed", 0), _sub(path, "seed"))
    kwargs = _sampler_kwargs(params, path, with_radius=False)

    if variant in ("compound_scaled", "compound_scalar_free"):
        if len(comps) != 1:
            raise ConfigError(_sub(path, "components"), "compound variants take exactly one operator")
        horizon = _as_int(params.get("horizon", 40), _sub(path, "horizon"))
        lambdas = None
        if "lambdas" in params:
            rows = _criterion_lambdas(params, 1, horizon, path)
            lambdas = rows[0] if rows else None
        from .criteria import powers_of_right_inverse

        data = CompoundData(
            op=comps[0],
            smap=powers_of_right_inverse(comps[0]),
            horizon=horizon,
            xsampler=make_vector_sampler(window, 1, **kwargs),
            ysampler=make_vector_sampler(window, 1, **kwargs),
            lambdas=lambdas,
            tol=tol,
            sample_count=sample_count,
            seed=seed,
        )
        check = check_compound_scaled if variant == "compound_scaled" else check_compound_scalar_free
        report = check(data)
        verdict = "pass" if report.passed else "fail"
        return RunOutcome(
            verdict,
            _VERDICT_EXIT[verdict],
            {"criterion": _criterion_payload(report)},
            {"criterion": _criterion_table(report)},
        )

    if variant not in ("scaled", "scalar_free", "roundtrip"):
        raise ConfigError(_sub(path, "variant"), f"unknown variant {variant!r}")
    if variant == "scaled" and "lambdas" not in params:
        raise ConfigError(_sub(path, "lambdas"), "the scaled variant needs explicit scalars")
    nk = _criterion_nk(params, path)
    arity = _component_arity(comps)
    data = CriterionData(
        components=comps,
        smaps=tuple(right_inverse(c) for c in comps),
        nk=nk,
        xsampler=make_vector_sampler(window, arity, **kwargs),
        ysampler=make_vector_sampler(window, arity, **kwargs),
        lambdas=_criterion_lambdas(params, arity, len(nk), path),
        tol=tol,
        sample_count=sample_count,
        seed=seed,
    )
    if variant == "roundtrip":
        eps = _as_float(params.get("eps", 0.1), _sub(path, "eps"))
        rt = roundtrip_scalar_derivation(data, eps)
        verdict = "pass" if rt.passed else "fail"
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
        return RunOutcome(verdict, _VERDICT_EXIT[verdict], results, {"criterion": _criterion_table(rt.scalar_free)})
    check = check_scaled_criterion if variant == "scaled" else check_scalar_free_criterion
    report = check(data)
    verdict = "pass" if report.passed else "fail"
    return RunOutcome(
        verdict,
        _VERDICT_EXIT[verdict],
        {"criterion": _criterion_payload(report)},
        {"criterion": _criterion_table(report)},
    )


# ---------------------------------------------------------------------------
# scenarios: named end-to-end studies with fixed defaults


def _merge_defaults(params: dict, defaults: dict) -> dict:
    out = dict(defaults)
    out.update(params)
    return out


def _scenario_shift_compound_not_mixing(params: dict) -> RunOutcome:
    p = _merge_defaults(params, {"m": 64, "horizon": 40, "trials": 5, "seed": 0, "radius": 0.45})
    window = IndexWindow(BILATERAL, _as_int(p["m"], "parameters.m"))
    horizon = _as_int(p["horizon"], "parameters.horizon")
    shift = ForwardShift(WeightProfile(2.0, 3.0))
    ball = Ball(ComplexVector.basis(window, 0), 0.5)
    src = ProductBall((ball,))
    tgt = ProductBall((ball,))
    disk_rep = junction_scan([shift], src, tgt, horizon, DISK)
    fixed_rep = junction_scan([shift], src, tgt, horizon, FIXED, (1.0,))
    sampler = make_ball_sampler(window, 1, radius=_as_float(p["radius"], "parameters.radius"), band=1)
    compound = detect(
        COMPOUND, [shift], sampler,
        trials=_as_int(p["trials"], "parameters.trials"), horizon=horizon,
        seed=_as_int(p["seed"], "parameters.seed"),
    )
    mixing = detect(
        MIXING, [shift], sampler,
        trials=_as_int(p["trials"], "parameters.trials"), horizon=horizon,
        seed=_as_int(p["seed"], "parameters.seed"),
    )
    certified = sorted(e.n for e in fixed_rep.entries if e.status == MISS_CERTIFIED and e.n >= 1)
    results = {
        "compound": compound.verdict,
        "mixing": mixing.verdict,
        "disk_scan": _scan_payload(disk_rep, 1),
        "fixed_scan": _scan_payload(fixed_rep, 1),
        "fixed_certified_powers": certified,
        "compound_trials": _verdict_payload(compound),
        "mixing_trials": _verdict_payload(mixing),
    }
    tables = {
        "disk_scan": _scan_table(disk_rep, 1),
        "fixed_scan": _scan_table(fixed_rep, 1),
        "compound_trials": _trials_table(compound),
        "mixing_trials": _trials_table(mixing),
    }
    if compound.verdict == CONFIRMED and mixing.verdict == REFUTED:
        return RunOutcome("pass", EXIT_PASS, results, tables)
    if INCONCLUSIVE in (compound.verdict, mixing.verdict):
        return RunOutcome(INCONCLUSIVE, EXIT_INCONCLUSIVE, results, tables)
    return RunOutcome("fail", EXIT_FAIL, results, tables)


def _scenario_diagonal_spectral_split(params: dict) -> RunOutcome:
    p = _merge_defaults(
        params,
        {"m": 4, "small_entry": 0.5, "large_entry": 2.0, "p": 1.0, "c": 1.5,
         "eps": 0.1, "delta": 0.1, "horizon": 60},
    )
    window = IndexWindow(BILATERAL, _as_int(p["m"], "parameters.m"))
    small_val = _as_complex(p["small_entry"], "parameters.small_entry")
    large_val = _as_complex(p["large_entry"], "parameters.large_entry")
    op = Diagonal({0: small_val, 1: large_val}, default=0.0)
    split = SpectralSplit(
        op=op,
        p=_as_float(p["p"], "parameters.p"),
        small=(EigenPair(small_val, ComplexVector.basis(window, 0)),),
        large=(EigenPair(large_val, ComplexVector.basis(window, 1)),),
        c=_as_complex(p["c"], "parameters.c"),
    )
    try:
        rep = spectral_witness(
            split, [1.0], [1.0],
            eps=_as_float(p["eps"], "parameters.eps"),
            delta=_as_float(p["delta"], "parameters.delta"),
            horizon=_as_int(p["horizon"], "parameters.horizon"),
        )
    except CriterionError as e:
        return RunOutcome("fail", EXIT_FAIL, {"r": None, "reason": str(e)})
    table: Table = (
        ("n", "correction_norm", "image_residual"),
        [(n, rep.correction_norms[i], rep.image_residuals[i]) for i, n in enumerate(rep.steps)],
    )
    results = {
        "r": rep.r,
        "correction_norms": list(rep.correction_norms),
        "image_residuals": list(rep.image_residuals),
    }
    return RunOutcome("pass", EXIT_PASS, results, {"witness": table})


def _scenario_cross_junction_equivalence(params: dict) -> RunOutcome:
    p = _merge_defaults(params, {"m": 32, "horizon": 15, "trials": 5, "seed": 0, "radius": 0.45})
    window = IndexWindow(BILATERAL, _as_int(p["m"], "parameters.m"))
    horizon = _as_int(p["horizon"], "parameters.horizon")
    trials = _as_int(p["trials"], "parameters.trials")
    comps = (ForwardShift(WeightProfile(2.0, 3.0)), ForwardShift(WeightProfile(2.0, 4.0)))
    sampler = make_ball_sampler(window, 2, radius=_as_float(p["radius"], "parameters.radius"), band=1)
    children = np.random.SeedSequence(_as_int(p["seed"], "parameters.seed")).spawn(2 * trials)
    mismatches = []
    per_trial = []
    for t in range(trials):
        sources = sampler(np.random.default_rng(children[2 * t]))
        targets = sampler(np.random.default_rng(children[2 * t + 1]))
        joint = junction_scan(comps, sources, targets, horizon)
        parts = [
            junction_scan(
                [comps[i]],
                ProductBall((sources.balls[i],)),
                ProductBall((targets.balls[i],)),
                horizon,
            )
            for i in range(2)
        ]
        meet = parts[0].hit_set & parts[1].hit_set
        per_trial.append({"trial": t, "joint": sorted(joint.hit_set), "intersection": sorted(meet)})
        if joint.hit_set != meet:
            mismatches.append(t)
    results = {"equivalent": not mismatches, "mismatching_trials": mismatches, "per_trial": per_trial}
    table: Table = (
        ("trial", "joint_hits", "component_intersection"),
        [(d["trial"], " ".join(map(str, d["joint"])), " ".join(map(str, d["intersection"]))) for d in per_trial],
    )
    verdict = "pass" if not mismatches else "fail"
    return RunOutcome(verdict, _VERDICT_EXIT[verdict], results, {"trials": table})


def _scenario_scalar_derivation_roundtrip(params: dict) -> RunOutcome:
    p = _merge_defaults(params, {"m": 64, "stop": 40, "eps": 0.1, "seed": 0, "sample_count": 10, "tol": 1e-6})
    window = IndexWindow(BILATERAL, _as_int(p["m"], "parameters.m"))
    shift = ForwardShift(WeightProfile(2.0, 3.0))
    nk = tuple(range(1, _as_int(p["stop"], "parameters.stop") + 1))
    sampler = make_vector_sampler(window, 1, band=1)
    data = CriterionData(
        components=(shift,),
        smaps=(right_inverse(shift),),
        nk=nk,
        xsampler=sampler,
        ysampler=sampler,
        tol=_as_float(p["tol"], "parameters.tol"),
        sample_count=_as_int(p["sample_count"], "parameters.sample_count"),
        seed=_as_int(p["seed"], "parameters.seed"),
    )
    rt = roundtrip_scalar_derivation(data, _as_float(p["eps"], "parameters.eps"))
    results = {
        "passed": rt.passed,
        "tol": rt.tol,
        "scalar_free_passed": rt.scalar_free.passed,
        "scaled_passes": list(rt.scaled_passes),
        "tail_indices": [q.tail_index for q in rt.derived.per_pair],
    }
    verdict = "pass" if rt.passed else "fail"
    return RunOutcome(verdict, _VERDICT_EXIT[verdict], results, {"criterion": _criterion_table(rt.scalar_free)})


def _scenario_compound_plus_transitive(params: dict) -> RunOutcome:
    p = _merge_defaults(params, {"m": 64, "horizon": 40, "trials": 20, "seed": 0, "radius": 0.45})
    window = IndexWindow(BILATERAL, _as_int(p["m"], "parameters.m"))
    horizon = _as_int(p["horizon"], "parameters.horizon")
    trials = _as_int(p["trials"], "parameters.trials")
    t1 = ForwardShift(WeightProfile(2.0, 3.0))
    t2 = ForwardShift(WeightProfile(2.0, 4.0))
    sampler = make_ball_sampler(window, 1, radius=_as_float(p["radius"], "parameters.radius"), band=1)
    children = np.random.SeedSequence(_as_int(p["seed"], "parameters.seed")).spawn(4 * trials)

    def run_trial(t: int) -> dict:
        balls = [sampler(np.random.default_rng(children[4 * t + i])) for i in range(4)]
        hits1 = junction_scan([t1], balls[0], balls[1], horizon).hit_set
        hits2 = junction_scan([t2], balls[2], balls[3], horizon).hit_set
        return {"trial": t, "common": sorted(hits1 & hits2)}

    per_trial = [run_trial(t) for t in range(trials)]
    empty = [d["trial"] for d in per_trial if not d["common"]]
    results = {"all_nonempty": not empty, "empty_trials": empty, "per_trial": per_trial}
    table: Table = (
        ("trial", "common_powers"),
        [(d["trial"], " ".join(map(str, d["common"]))) for d in per_trial],
    )
    if not empty:
        return RunOutcome(CONFIRMED, EXIT_PASS, results, {"trials": table})
    return RunOutcome(INCONCLUSIVE, EXIT_INCONCLUSIVE, results, {"trials": table})


def _scenario_direct_sum_diskcyclic_criterion(params: dict) -> RunOutcome:
    p = _merge_defaults(params, {"m": 64, "stop": 40, "trials": 10, "horizon": 40, "seed": 0, "tol": 1e-6, "sample_count": 10})
    window = IndexWindow(BILATERAL, _as_int(p["m"], "parameters.m"))
    nk = tuple(range(1, _as_int(p["stop"], "parameters.stop") + 1))
    tol = _as_float(p["tol"], "parameters.tol")
    sample_count = _as_int(p["sample_count"], "parameters.sample_count")
    seed = _as_int(p["seed"], "parameters.seed")
    s1 = ForwardShift(WeightProfile(2.0, 3.0))
    s2 = ForwardShift(WeightProfile(2.0, 4.0))

    def single(op) -> bool:
        sampler = make_vector_sampler(window, 1, band=1)
        data = CriterionData(
            components=(op,), smaps=(right_inverse(op),), nk=nk,
            xsampler=sampler, ysampler=sampler,
            tol=tol, sample_count=sample_count, seed=seed,
        )
        return check_scalar_free_criterion(data).passed

    passed1, passed2 = single(s1), single(s2)
    pair_sampler = make_vector_sampler(window, 2, band=1)
    sum_data = CriterionData(
        components=(s1, s2), smaps=(right_inverse(s1), right_inverse(s2)), nk=nk,
        xsampler=pair_sampler, ysampler=pair_sampler,
        tol=tol, sample_count=sample_count, seed=seed,
    )
    sum_report = check_scalar_free_criterion(sum_data)
    ball_sampler = make_ball_sampler(window, 2, band=1)
    verdict = detect(
        K_BITRANSITIVE, [s1, s2], ball_sampler,
        trials=_as_int(p["trials"], "parameters.trials"),
        horizon=_as_int(p["horizon"], "parameters.horizon"),
        seed=seed,
    )
    results = {
        "component_criteria": [passed1, passed2],
        "direct_sum_criterion": _criterion_payload(sum_report),
        "detect": _verdict_payload(verdict),
    }
    tables = {"criterion": _criterion_table(sum_report), "trials": _trials_table(verdict)}
    ok = passed1 and passed2 and sum_report.passed and verdict.verdict == CONFIRMED
    if ok:
        return RunOutcome("pass", EXIT_PASS, results, tables)
    if verdict.verdict == INCONCLUSIVE:
        return RunOutcome(INCONCLUSIVE, EXIT_INCONCLUSIVE, results, tables)
    return RunOutcome("fail", EXIT_FAIL, results, tables)


SCENARIOS: dict[str, Callable[[dict], RunOutcome]] = {
    "shift-compound-not-mixing": _scenario_shift_compound_not_mixing,
    "diagonal-spectral-split": _scenario_diagonal_spectral_split,
    "cross-junction-equivalence": _scenario_cross_junction_equivalence,
    "scalar-derivation-roundtrip": _scenario_scalar_derivation_roundtrip,
    "compound-plus-transitive": _scenario_compound_plus_transitive,
    "direct-sum-diskcyclic-criterion": _scenario_direct_sum_diskcyclic_criterion,
}

_EXPERIMENTS = ("orbit", "hit", "junction", "cross", "detect", "criterion", "scenario")


def run(cfg: dict) -> tuple[RunOutcome, dict]:
    """Run the configured experiment; returns the outcome and the full report."""
    experiment = _as_str(_get(cfg, "experiment", ""), "experiment")
    if experiment not in _EXPERIMENTS:
        raise ConfigError("experiment", f"unknown experiment {experiment!r}")
    params = _as_dict(cfg.get("parameters", {}), "parameters")

    if experiment == "scenario":
        scenario_id = _as_str(_get(params, "id", "parameters"), "parameters.id")
        if scenario_id not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ConfigError("parameters.id", f"unknown scenario {scenario_id!r} (known: {known})")
        if "window" in cfg and "m" not in params:
            params = dict(params)
            params["m"] = _as_int(_get(_as_dict(cfg["window"], "window"), "m", "window"), "window.m")
        outcome = SCENARIOS[scenario_id](params)
    else:
        window = build_window(_get(cfg, "window", ""), "window")
        registry = build_operators(cfg.get("operators", {}), window)
        if experiment == "orbit":
            outcome = _run_orbit(params, registry, window, "parameters")
        elif experiment == "hit":
            outcome = _run_hit(params, registry, window, "parameters")
        elif experiment == "junction":
            outcome = _run_junction(params, registry, window, "parameters")
        elif experiment == "cross":
            outcome = _run_cross(params, registry, window, "parameters")
        elif experiment == "detect":
            outcome = _run_detect(params, registry, window, "parameters")
        else:
            outcome = _run_criterion(params, registry, window, "parameters")

    report = {
        "tool": {"name": "disklab", "version": __version__},
        "created": datetime.now(timezone.utc).isoformat(),
        "experiment": experiment,
        "verdict": outcome.verdict,
        "exit_code": outcome.exit_code,
        "seed": params.get("seed", 0),
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


def emit_plotdata(outcome: RunOutcome, directory: str | Path, stem: str = "lab") -> list[Path]:
    """Write one CSV per table; byte-identical across runs with the same seed."""
    out_dir = Path(directory)
    paths = []
    for name, table in outcome.tables.items():
        path = out_dir / f"{stem}_{name}.csv"
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
        outcome, report = run(cfg)
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
    output = cfg.get("output", {})
    if output:
        output = _as_dict(output, "output")
    json_path = output.get("json_path")
    if json_path:
        path = Path(json_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    csv_path = output.get("csv_path")
    if csv_path and outcome.tables:
        first = next(iter(outcome.tables.values()))
        _write_csv(Path(csv_path), first)
    plot_dir = output.get("plot_dir")
    if plot_dir:
        emit_plotdata(outcome, plot_dir)
    print(f"{report['experiment']}: {outcome.verdict} (exit {outcome.exit_code})")
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
