"""Config-driven runner: parsing, diagnostics, exit codes, determinism."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from disklab import cli
from disklab.cli import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    SCENARIOS,
    ConfigError,
    apply_overrides,
    build_operators,
    build_window,
    emit_plotdata,
    load_config,
    main,
    run,
)
from disklab.operators import (
    BackwardShift,
    Dense,
    Diagonal,
    DirectSum,
    ForwardShift,
    PowerStack,
    Scalar,
    WindowGuardError,
)
from disklab.vectorspace import BILATERAL, UNILATERAL, IndexWindow


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def shift_config(**parameters):
    cfg = {
        "window": {"kind": "bilateral", "m": 16},
        "operators": {"shift": {"type": "forward_shift", "pos": 2.0, "neg": 3.0}},
        "experiment": "junction",
        "parameters": {
            "components": ["shift"],
            "horizon": 8,
            "sources": [{"center": {"basis": 0}, "radius": 0.5}],
            "targets": [{"center": {"basis": 0}, "radius": 0.5}],
        },
    }
    cfg["parameters"].update(parameters)
    return cfg


# -- config loading and overrides -------------------------------------------


def test_load_config_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": "junction",\n  "window": {')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "line 2" in err.value.field_path


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_config(path)


def test_overrides_descend_dotted_paths():
    cfg = {"parameters": {"horizon": 8}}
    apply_overrides(cfg, ["parameters.horizon=40", "parameters.seed=7", "output.json_path=x.json"])
    assert cfg["parameters"]["horizon"] == 40
    assert cfg["parameters"]["seed"] == 7
    assert cfg["output"]["json_path"] == "x.json"


def test_overrides_parse_json_values_with_string_fallback():
    cfg = {}
    apply_overrides(cfg, ["a=1.5", "b=[1,2]", "c=true", "d=not json"])
    assert cfg == {"a": 1.5, "b": [1, 2], "c": True, "d": "not json"}


def test_override_without_equals_is_rejected():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["horizon40"])


def test_override_cannot_cross_a_scalar():
    with pytest.raises(ConfigError) as err:
        apply_overrides({"a": 3}, ["a.b=1"])
    assert err.value.field_path == "a"


# -- builders ----------------------------------------------------------------


def test_build_window_kinds_and_errors():
    assert build_window({"kind": "bilateral", "m": 8}).kind == BILATERAL
    assert build_window({"kind": "unilateral", "m": 8}).kind == UNILATERAL
    with pytest.raises(ConfigError) as err:
        build_window({"kind": "circular", "m": 8})
    assert err.value.field_path == "window.kind"
    with pytest.raises(ConfigError):
        build_window({"kind": "bilateral"})
    with pytest.raises(ConfigError):
        build_window({"kind": "bilateral", "m": 0})


def test_build_operators_every_type():
    window = IndexWindow(BILATERAL, 4)
    registry = build_operators(
        {
            "fwd": {"type": "forward_shift", "pos": 2.0, "neg": 3.0, "table": {"0": 0.5}},
            "bwd": {"type": "backward_shift", "pos": 2.0},
            "diag": {"type": "diagonal", "entries": {"0": 0.5, "1": [0.0, 2.0]}, "default": 1.0},
            "half": {"type": "scalar", "value": 0.5},
            "mat": {"type": "dense", "matrix": [[1.0] * 9 for _ in range(9)]},
            "pair": {"type": "direct_sum", "parts": ["fwd", "half"]},
        },
        window,
    )
    assert isinstance(registry["fwd"], ForwardShift)
    assert registry["fwd"].weights.weight(0) == 0.5
    assert isinstance(registry["bwd"], BackwardShift)
    assert isinstance(registry["diag"], Diagonal)
    assert registry["diag"].entry(1) == 2.0j
    assert isinstance(registry["half"], Scalar)
    assert isinstance(registry["mat"], Dense)
    assert isinstance(registry["pair"], DirectSum)
    assert registry["pair"].components[1] is registry["half"]


def test_build_operators_diagnostics_name_the_field():
    window = IndexWindow(BILATERAL, 4)
    with pytest.raises(ConfigError) as err:
        build_operators({"x": {"type": "warp"}}, window)
    assert err.value.field_path == "operators.x.type"
    with pytest.raises(ConfigError) as err:
        build_operators({"x": {"type": "forward_shift", "pos": -1.0}}, window)
    assert "positive" in err.value.message
    with pytest.raises(ConfigError) as err:
        build_operators({"x": {"type": "dense", "matrix": [[1, 2]]}}, window)
    assert "square" in err.value.message
    with pytest.raises(ConfigError) as err:
        build_operators({"x": {"type": "dense", "matrix": [[1]]}}, window)
    assert "9" in err.value.message
    with pytest.raises(ConfigError) as err:
        build_operators({"s": {"type": "direct_sum", "parts": ["ghost"]}}, window)
    assert "ghost" in err.value.message


def _experiment(experiment, **parameters):
    cfg = shift_config()
    cfg["experiment"] = experiment
    cfg["parameters"] = {"components": ["shift"], **parameters}
    return cfg


def _with(cfg, path, value):
    """Copy of cfg with the dotted path set to value (list indices as digits)."""
    cfg = json.loads(json.dumps(cfg))
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value
    return cfg


_DENSE_3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
_BALL = [{"center": {"basis": 0}, "radius": 0.5}]
_CROSS_SCENARIO = {"experiment": "scenario", "parameters": {"id": "cross-junction-equivalence"}}

FIELD_PATH_CASES = [
    ("window.m", _with(shift_config(), "window.m", "16"), "window.m"),
    (
        "table key",
        _with(shift_config(), "operators.shift.table", {"3": "heavy"}),
        "operators.shift.table.3",
    ),
    (
        "matrix entry",
        _with(
            _with(shift_config(), "window.m", 1),
            "operators.d",
            {"type": "dense", "matrix": [_DENSE_3[0], [0.0, "one", 0.0], _DENSE_3[2]]},
        ),
        "operators.d.matrix[1][1]",
    ),
    (
        "direct-sum part",
        _with(shift_config(), "operators.pair", {"type": "direct_sum", "parts": ["shift", "ghost"]}),
        "operators.pair.parts[1]",
    ),
    ("component", _with(shift_config(), "parameters.components", ["shift", 7]), "parameters.components[1]"),
    (
        "ball center basis",
        _with(shift_config(), "parameters.sources.0.center.basis", 99),
        "parameters.sources[0].center.basis",
    ),
    (
        "fixed alpha",
        _with(_with(shift_config(), "parameters.mode", "fixed"), "parameters.alphas", [1.0, "one"]),
        "parameters.alphas[1]",
    ),
    ("mode", _with(shift_config(), "parameters.mode", "sideways"), "parameters.mode"),
    # keys no runner reads: a misspelling, and options the scans and detect no longer take
    ("horizn", _with(shift_config(), "parameters.horizn", 3), "parameters.horizn"),
    ("guard", _with(shift_config(), "parameters.guard", True), "parameters.guard"),
    ("tail_fraction", _experiment("detect", kind="compound", tail_fraction=0.5), "parameters.tail_fraction"),
    # keys another mode or variant reads, which this one would ignore
    ("disk-mode alphas", _with(shift_config(), "parameters.alphas", [0.5]), "parameters.alphas"),
    (
        "scalar_free eps and horizon",
        _experiment("criterion", variant="scalar_free", eps=5.0, horizon=3),
        "parameters.eps",
    ),
    ("default-variant horizon", _experiment("criterion", horizon=3), "parameters.horizon"),
    (
        "compound nk",
        _experiment("criterion", variant="compound_scalar_free", nk={"stop": 3}),
        "parameters.nk",
    ),
    (
        "unknown sampler field",
        _experiment("detect", kind="compound", sampler={"width": 2}),
        "parameters.sampler.width",
    ),
    (
        "criterion sampler radius",
        _experiment("criterion", sampler={"radius": 0.5}),
        "parameters.sampler.radius",
    ),
    ("nk stop", _experiment("criterion", nk={"start": 1, "stop": "forty"}), "parameters.nk.stop"),
    # sampler and nk values out of range, which the library would refuse with no field path
    (
        "sampler support zero",
        _experiment("detect", kind="compound", sampler={"support": 0}),
        "parameters.sampler.support",
    ),
    (
        "sampler radius negative",
        _experiment("detect", kind="compound", sampler={"radius": -0.5}),
        "parameters.sampler.radius",
    ),
    (
        "sampler band negative",
        _experiment("detect", kind="compound", sampler={"band": -2}),
        "parameters.sampler.band",
    ),
    (
        "sampler bound negative",
        _experiment("detect", kind="compound", sampler={"bound": -1}),
        "parameters.sampler.bound",
    ),
    (
        "sampler modulus_lo above the bound",
        _experiment("detect", kind="compound", sampler={"modulus_lo": 2}),
        "parameters.sampler.modulus_lo",
    ),
    (
        "sampler bound below the default modulus_lo",
        _experiment("detect", kind="compound", sampler={"bound": 0.3}),
        "parameters.sampler.bound",
    ),
    ("criterion sampler support zero", _experiment("criterion", sampler={"support": 0}), "parameters.sampler.support"),
    ("nk list not positive", _experiment("criterion", nk=[-2, -1, 0, 1]), "parameters.nk"),
    ("nk list not increasing", _experiment("criterion", nk=[1, 3, 3]), "parameters.nk"),
    ("nk start not positive", _experiment("criterion", nk={"start": -2, "stop": 1}), "parameters.nk"),
    ("nk range empty", _experiment("criterion", nk={"start": 3, "stop": 1}), "parameters.nk"),
    (
        "lambda entry",
        _experiment("criterion", variant="scaled", nk=[1, 2, 3], lambdas=[[1.0, "half", 1.0]]),
        "parameters.lambdas[0][1]",
    ),
    ("detect kind", _experiment("detect", kind="chaotic"), "parameters.kind"),
    ("criterion variant", _experiment("criterion", variant="sideways"), "parameters.variant"),
    ("scenario m", _with(_CROSS_SCENARIO, "parameters.m", 0.5), "parameters.m"),
    ("scenario m zero", _with(_CROSS_SCENARIO, "parameters.m", 0), "parameters.m"),
    ("scenario m negative", _with(_CROSS_SCENARIO, "parameters.m", -2), "parameters.m"),
    ("scenario window.m", _with(_CROSS_SCENARIO, "window", {"m": 0}), "window.m"),
    ("scenario trials", _with(_CROSS_SCENARIO, "parameters.trials", "five"), "parameters.trials"),
    ("scenario trials zero", _with(_CROSS_SCENARIO, "parameters.trials", 0), "parameters.trials"),
    (
        "compound-plus-transitive trials zero",
        {"experiment": "scenario", "parameters": {"id": "compound-plus-transitive", "trials": 0}},
        "parameters.trials",
    ),
    ("detect trials zero", _experiment("detect", kind="disk_transitive", trials=0), "parameters.trials"),
    ("detect trials negative", _experiment("detect", kind="disk_transitive", trials=-1), "parameters.trials"),
    ("detect horizon zero", _experiment("detect", kind="compound", horizon=0), "parameters.horizon"),
    ("scenario unknown key", _with(_CROSS_SCENARIO, "parameters.stop", 0), "parameters.stop"),
    ("scenario horizon zero", _with(_CROSS_SCENARIO, "parameters.horizon", 0), "parameters.horizon"),
    (
        "scenario stop zero",
        {"experiment": "scenario", "parameters": {"id": "scalar-derivation-roundtrip", "stop": 0}},
        "parameters.stop",
    ),
    (
        "scenario sample_count zero",
        {"experiment": "scenario", "parameters": {"id": "scalar-derivation-roundtrip", "sample_count": 0}},
        "parameters.sample_count",
    ),
    ("junction horizon zero", _with(shift_config(), "parameters.horizon", 0), "parameters.horizon"),
    ("criterion sample_count zero", _experiment("criterion", sample_count=0), "parameters.sample_count"),
    ("scenario seed negative", _with(_CROSS_SCENARIO, "parameters.seed", -1), "parameters.seed"),
    ("detect seed negative", _experiment("detect", kind="compound", seed=-3), "parameters.seed"),
    ("criterion seed negative", _experiment("criterion", seed=-1), "parameters.seed"),
    ("reported seed negative", _with(shift_config(), "parameters.seed", -1), "parameters.seed"),
    (
        "compound criterion horizon zero",
        _experiment("criterion", variant="compound_scalar_free", horizon=0),
        "parameters.horizon",
    ),
    ("orbit horizon negative", _experiment("orbit", vector={"basis": 0}, horizon=-3), "parameters.horizon"),
    # numbers that mean nothing at 0 or below, which the library would refuse with no field path
    *(
        (
            f"scenario {key} {value}",
            {"experiment": "scenario", "parameters": {"id": scenario, key: value}},
            f"parameters.{key}",
        )
        for scenario, key in (
            ("shift-compound-not-mixing", "radius"),
            ("scalar-derivation-roundtrip", "eps"),
            ("scalar-derivation-roundtrip", "tol"),
            ("diagonal-spectral-split", "p"),
            ("diagonal-spectral-split", "delta"),
        )
        for value in (0, -0.5)
    ),
    *((f"criterion tol {value}", _experiment("criterion", tol=value), "parameters.tol") for value in (0, -1)),
    *(
        (f"roundtrip eps {value}", _experiment("criterion", variant="roundtrip", eps=value), "parameters.eps")
        for value in (0, -1)
    ),
    (
        "hit power negative",
        _experiment("hit", n=-1, **dict.fromkeys(("sources", "targets"), [{"center": {"basis": 0}, "radius": 0.5}])),
        "parameters.n",
    ),
    # values a field's own reader takes, which the fields around it rule out
    ("sampler band too narrow", _experiment("detect", kind="compound", sampler={"band": 0}), "parameters.sampler.band"),
    (
        "sampler support past the window",
        _experiment("detect", kind="compound", sampler={"support": 40}),
        "parameters.sampler.support",
    ),
    (
        "criterion sampler support past the window",
        _experiment("criterion", sampler={"support": 40}),
        "parameters.sampler.support",
    ),
    *(
        (
            f"spectral split {key} {value}",
            {"experiment": "scenario", "parameters": {"id": "diagonal-spectral-split", key: value}},
            f"parameters.{key}",
        )
        for key, value in (
            ("small_entry", -1), ("large_entry", 0), ("large_entry", -1), ("large_entry", -0.5), ("c", 0), ("c", -0.5)
        )
    ),
    *(
        (
            f"lambda {lams}",
            _experiment("criterion", variant="scaled", nk=[1, 2], lambdas=[lams]),
            "parameters.lambdas[0][0]",
        )
        for lams in ([2.0, 0.5], [0, 0.5])
    ),
    # fixed alphas that HitProblem would refuse with no field path: a zero, a
    # modulus past 1 (the pair [0.6, 0.9] is one complex alpha), a count that
    # is not the number of components
    *(
        (
            f"{experiment} fixed alphas {alphas}",
            _experiment(experiment, mode="fixed", alphas=alphas, **balls),
            "parameters.alphas" if len(alphas) > 1 else "parameters.alphas[0]",
        )
        for experiment, balls in (
            ("hit", {"n": 2, "sources": _BALL, "targets": _BALL}),
            ("junction", {"sources": _BALL, "targets": _BALL}),
            ("cross", {"a": _BALL, "b": _BALL}),
        )
        for alphas in ([0], [2.0], [[0.6, 0.9]], [1.0, 1.0])
    ),
    # the field the config set, where the other field of the comparison is a default
    (
        "spectral split p past the default c",
        {"experiment": "scenario", "parameters": {"id": "diagonal-spectral-split", "p": 1.6}},
        "parameters.p",
    ),
    (
        "spectral split p past c, both set",
        {"experiment": "scenario", "parameters": {"id": "diagonal-spectral-split", "p": 1.6, "c": 1.5}},
        "parameters.c",
    ),
    # keys outside the parameters that their object does not read
    (
        "operator ng",
        _with(shift_config(), "operators.shift", {"type": "forward_shift", "pos": 2, "ng": 3}),
        "operators.shift.ng",
    ),
    ("output jsonpath", _with(shift_config(), "output", {"jsonpath": "report.json"}), "output.jsonpath"),
    ("window knd", _with(shift_config(), "window", {"m": 4, "knd": "unilateral"}), "window.knd"),
    ("top-level key", _with(shift_config(), "operator", {}), "operator"),
    ("scalar value on a shift", _with(shift_config(), "operators.shift.value", 2.0), "operators.shift.value"),
    (
        "vector with basis and coeffs",
        _with(shift_config(), "parameters.sources.0.center", {"basis": 0, "coeffs": {"0": 1.0}}),
        "parameters.sources[0].center.coeffs",
    ),
    (
        "coefficient vector scale",
        _with(shift_config(), "parameters.sources.0.center", {"coeffs": {"0": 1.0}, "scale": 2.0}),
        "parameters.sources[0].center.scale",
    ),
    (
        "ball centre misspelt",
        _with(shift_config(), "parameters.sources.0.centre", {"basis": 0}),
        "parameters.sources[0].centre",
    ),
    ("nk range step", _experiment("criterion", nk={"stop": 3, "step": 2}), "parameters.nk.step"),
    ("scenario window kind", _with(_CROSS_SCENARIO, "window", {"kind": "sideways"}), "window.kind"),
    ("scenario unilateral window", _with(_CROSS_SCENARIO, "window", {"kind": "unilateral", "m": 8}), "window.kind"),
    ("scenario operators", _with(_CROSS_SCENARIO, "operators", {"x": {"type": "nope"}}), "operators"),
    # values of operator fields
    ("table weight negative", _with(shift_config(), "operators.shift.table", {"3": -1.0}), "operators.shift.table.3"),
    (
        "ragged matrix",
        _with(_with(shift_config(), "window.m", 1), "operators.d", {"type": "dense", "matrix": [_DENSE_3[0], [1.0]]}),
        "operators.d.matrix",
    ),
]


@pytest.mark.parametrize(
    "cfg, field_path", [c[1:] for c in FIELD_PATH_CASES], ids=[c[0] for c in FIELD_PATH_CASES]
)
def test_config_errors_name_the_field(cfg, field_path):
    with pytest.raises(ConfigError) as err:
        run(cfg)
    assert err.value.field_path == field_path


def test_unknown_scenario_key_lists_the_keys_it_takes():
    cfg = {"experiment": "scenario", "parameters": {"id": "scalar-derivation-roundtrip", "horizon": 0}}
    with pytest.raises(ConfigError) as err:
        run(cfg)
    assert err.value.field_path == "parameters.horizon"
    assert err.value.message.endswith("it takes eps, m, sample_count, seed, stop, tol")


def test_unknown_experiment_key_lists_the_keys_it_takes():
    with pytest.raises(ConfigError) as err:
        run(shift_config(horizn=3))
    assert err.value.field_path == "parameters.horizn"
    assert err.value.message.endswith("it takes alphas, components, horizon, mode, seed, sources, targets")


def test_key_of_another_mode_or_variant_names_who_reads_it():
    with pytest.raises(ConfigError) as err:
        run(shift_config(alphas=[0.5]))
    assert err.value.message == "not read when mode is 'disk'; only mode fixed reads it"
    with pytest.raises(ConfigError) as err:
        run(_experiment("criterion", variant="roundtrip", lambdas=[[0.5]]))
    assert err.value.message.endswith("only variant scaled, compound_scaled reads it")
    # an unknown mode is reported as such, not through the keys it would read
    with pytest.raises(ConfigError) as err:
        run(shift_config(mode="sideways", alphas=[0.5]))
    assert err.value.field_path == "parameters.mode"


class _RecordingParams(dict):
    """Parameters that remember every key looked up in them."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


_FIXED = {"mode": "fixed", "alphas": [1.0]}
# per experiment, parameters that between them take every branch reading a key
_READING_RUNS = {
    "orbit": [{"vector": {"basis": 0}, "horizon": 3}],
    "hit": [{"n": 2, "sources": _BALL, "targets": _BALL, **_FIXED}],
    "junction": [{"horizon": 3, "sources": _BALL, "targets": _BALL, **_FIXED}],
    "cross": [{"horizon": 3, "a": _BALL, "b": _BALL, **_FIXED}],
    "detect": [{"kind": "compound", "trials": 1, "horizon": 3, "sampler": {"band": 1}}],
    "criterion": [
        {"variant": "scaled", "nk": [1, 2], "lambdas": [[0.5, 0.25]], "sample_count": 2, "sampler": {"band": 1}},
        {"variant": "roundtrip", "nk": {"stop": 3}, "eps": 0.1, "sample_count": 2, "sampler": {"band": 1}},
        {"variant": "compound_scalar_free", "horizon": 3, "sample_count": 2, "sampler": {"band": 1}},
    ],
}


@pytest.mark.parametrize("experiment", sorted(_READING_RUNS))
def test_each_experiment_takes_the_keys_it_reads(experiment):
    """The keys an experiment accepts are the keys its runs look up, and seed."""
    assert set(_READING_RUNS) == set(cli._RUNNERS)
    read = set()
    for params in _READING_RUNS[experiment]:
        cfg = _experiment(experiment)
        params = _RecordingParams(cfg["parameters"] | params)
        run(cfg | {"parameters": params})
        read |= params.read
    assert read == set(cli._RUNNERS[experiment].fields)


class _Computed(Exception):
    """Raised by every library call that computes, in place of the call."""


# the library calls the runners and scenarios compute with
_COMPUTING = (
    "solve_hit", "junction_scan", "junction_scans", "cross_scan", "detect", "disk_orbit_norms", "spectral_witness",
    "roundtrip_scalar_derivation", "check_scaled_criterion", "check_scalar_free_criterion",
    "check_compound_scaled", "check_compound_scalar_free",
)
# a wrong type (no field takes a boolean), zero, negatives and NaN
_MUTATIONS = (True, 0, -1, -0.5, math.nan)


def _table_walks(name):
    """(base config, table, ctx) for each base run of an experiment or
    scenario, ctx holding what the run reads from its table."""
    if name in SCENARIOS:
        table = SCENARIOS[name]
        yield {"experiment": "scenario", "parameters": {"id": name}}, table, cli._read_table({}, table.fields, "")
        return
    table = cli._RUNNERS[name]
    for params in _READING_RUNS[name]:
        cfg = _experiment(name, **params)
        window = build_window(cfg["window"])
        ctx = dict(window=window, registry=build_operators(cfg["operators"], window))
        yield cfg, table, cli._read_table(cfg["parameters"], table.fields, "parameters", table.choice, **ctx)


def _field_mutations(cfg, table, ctx):
    """(path, config, whether the field's own reader refuses the value) for
    every field the base config reads, the sampler's fields included."""
    for key, field in table.fields.items():
        if ctx[key] is None and field.only is not None:
            continue  # the base run's mode or variant does not read it
        nested = [(f"{key}.{sub}", sub_field) for sub, sub_field in getattr(field.read, "fields", {}).items()]
        for path, f in [(key, field), *nested]:
            for value in _MUTATIONS:
                try:
                    f.read(value, path, ctx)
                    refused = False
                except ConfigError:
                    refused = True
                yield f"parameters.{path}", _with(cfg, f"parameters.{path}", value), refused


@pytest.mark.parametrize("name", sorted({*_READING_RUNS, *SCENARIOS}))
def test_every_field_is_checked_before_anything_is_computed(name, monkeypatch):
    """Walk the tables: each field set to a wrong type, 0, -1, -0.5 or NaN is
    a ConfigError at that field's path whenever its reader refuses the value,
    raised before any solve, scan or criterion check; a value the run takes
    reaches the computation and ends in no other error."""

    def computing(*args, **kwargs):
        raise _Computed

    for call in _COMPUTING:
        monkeypatch.setattr(cli, call, computing)
    walked = set()
    for cfg, table, ctx in _table_walks(name):
        for path, mutated, refused in _field_mutations(cfg, table, ctx):
            walked.add(path.split(".")[1])
            try:
                run(mutated)
            except ConfigError as err:
                assert err.field_path == path, (path, err)
            except _Computed:
                assert not refused, f"{path} computed with a value its reader refuses"
    assert walked == set(table.fields)


_HUGE = 10**400  # an integer literal json.loads reads and float() cannot hold


@pytest.mark.parametrize(
    "edit, field_path, literal",
    [
        (
            lambda cfg: cfg["parameters"]["targets"][0].update(radius=math.inf),
            "parameters.targets[0].radius",
            "Infinity",
        ),
        (lambda cfg: cfg["operators"].update(s={"type": "forward_shift", "pos": math.nan}), "operators.s.pos", "NaN"),
        (
            lambda cfg: cfg["operators"].update(c={"type": "scalar", "value": [1.0, -math.inf]}),
            "operators.c.value",
            "-Infinity",
        ),
        (
            lambda cfg: cfg["operators"].update(s={"type": "forward_shift", "pos": _HUGE}),
            "operators.s.pos",
            "1" + "0" * 400,
        ),
        (
            lambda cfg: cfg["operators"].update(c={"type": "scalar", "value": [1.0, -_HUGE]}),
            "operators.c.value",
            "-1" + "0" * 400,
        ),
    ],
    ids=["infinite radius", "nan weight", "infinite imaginary part", "oversized weight", "oversized imaginary part"],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, edit, field_path, literal):
    cfg = shift_config()
    edit(cfg)
    path = write_config(tmp_path, cfg)
    assert literal in path.read_text()
    assert main([str(path)]) == EXIT_ERROR
    assert f"config error at {field_path}: expected a finite number" in capsys.readouterr().err


# -- experiments through run() ----------------------------------------------


def test_orbit_run_reports_norm_curve():
    cfg = {
        "window": {"kind": "bilateral", "m": 8},
        "operators": {"double": {"type": "scalar", "value": 2.0}},
        "experiment": "orbit",
        "parameters": {"components": ["double"], "vector": {"basis": 0}, "horizon": 5},
    }
    outcome, report = run(cfg)
    assert outcome.exit_code == EXIT_PASS
    assert outcome.results["norms"] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    assert report["curves"]["orbit"]["rows"][5] == [5, 32.0]


def test_hit_run_exit_codes_cover_all_statuses():
    base = {
        "window": {"kind": "bilateral", "m": 8},
        "operators": {"double": {"type": "scalar", "value": 2.0}},
        "experiment": "hit",
        "parameters": {
            "components": ["double"],
            "n": 1,
            "sources": [{"center": {"basis": 0}, "radius": 0.25}],
            "targets": [{"center": {"basis": 0}, "radius": 0.25}],
        },
    }
    outcome, _ = run(base)
    assert outcome.exit_code == EXIT_PASS
    assert outcome.results["status"] == "hit"

    far = json.loads(json.dumps(base))
    far["parameters"]["mode"] = "fixed"
    far["parameters"]["alphas"] = [1.0]
    far["parameters"]["targets"] = [{"center": {"basis": 0, "scale": 8.0}, "radius": 0.25}]
    outcome, _ = run(far)
    assert outcome.exit_code == EXIT_FAIL
    assert outcome.results["status"] == "miss_certified"
    assert outcome.results["lower_bound"] > 0

    # reachable norm but wrong direction, too close for the norm bounds: the
    # exact scalar bound min_t hypot(t, 1.1) - 0.25 t = 1.1 sqrt(1 - 0.25^2) decides it
    wrong_way = json.loads(json.dumps(base))
    wrong_way["operators"]["double"] = {"type": "scalar", "value": 1.0}
    wrong_way["parameters"]["targets"] = [{"center": {"basis": 1, "scale": 1.1}, "radius": 0.1}]
    outcome, _ = run(wrong_way)
    assert outcome.exit_code == EXIT_FAIL
    assert outcome.results["bound_kind"] == "scalar_exact"
    assert outcome.results["lower_bound"] == pytest.approx(1.1 * math.sqrt(1.0 - 0.25**2))

    # 2 I held as a dense matrix goes through the search, which neither hits
    # nor certifies e0 -> e1 at n = 5
    hard = json.loads(json.dumps(base))
    hard["window"] = {"kind": "unilateral", "m": 4}
    hard["operators"]["double"] = {
        "type": "dense",
        "matrix": [[2.0 if i == j else 0.0 for j in range(5)] for i in range(5)],
    }
    hard["parameters"]["n"] = 5
    hard["parameters"]["sources"] = [{"center": {"basis": 0}, "radius": 0.45}]
    hard["parameters"]["targets"] = [{"center": {"basis": 1}, "radius": 0.45}]
    outcome, _ = run(hard)
    assert outcome.exit_code == EXIT_INCONCLUSIVE
    assert outcome.results["status"] == "miss_uncertain"


def test_junction_run_matches_library_scan(tmp_path):
    outcome, report = run(shift_config(horizon=8))
    assert outcome.exit_code == EXIT_PASS
    scan = outcome.results["scan"]
    assert scan["tail_start"] == 3
    header, rows = outcome.tables["scan"]
    assert header == ("n", "status", "abs_alpha_1", "residual")
    assert rows[0][0] == 0 and len(rows) == 9
    # tail alphas follow the balanced-weight decay
    by_n = {r[0]: r for r in rows}
    assert by_n[4][1] == "hit"
    assert math.isclose(by_n[4][2], 6.0 ** -2, rel_tol=1e-8)


def test_scan_entries_flatten_certificates_into_fixed_keys():
    outcome, _ = run(shift_config(mode="fixed", alphas=[1.0]))
    entries = outcome.results["scan"]["entries"]
    keys = ["n", "status", "alphas", "residuals", "lower_bound", "bound_kind", "certified_component"]
    assert [list(e) for e in entries] == [keys] * 9
    # the identity hits at n = 0; from n = 2 on the unit scaling is certified missed
    assert entries[0]["status"] == "hit" and entries[0]["lower_bound"] is None
    certified = entries[8]
    assert certified["status"] == "miss_certified"
    assert (certified["bound_kind"], certified["certified_component"]) == ("minmod", 0)
    # min-modulus 2^8 times inner radius 0.5, minus target center norm 1
    assert certified["lower_bound"] == pytest.approx(2.0**8 * 0.5 - 1.0)


def test_cross_run_reports_intersection():
    cfg = shift_config()
    cfg["experiment"] = "cross"
    cfg["parameters"] = {
        "components": ["shift"],
        "horizon": 8,
        "a": [{"center": {"basis": 0}, "radius": 0.5}],
        "b": [{"center": {"basis": 0}, "radius": 0.5}],
    }
    outcome, _ = run(cfg)
    assert outcome.exit_code == EXIT_PASS
    r = outcome.results
    assert set(r["junction"]) == set(r["forward"]) & set(r["backward"])
    assert r["junction"]


def test_detect_run_confirms_compound_shift():
    cfg = {
        "window": {"kind": "bilateral", "m": 48},
        "operators": {"shift": {"type": "forward_shift", "pos": 2.0, "neg": 3.0}},
        "experiment": "detect",
        "parameters": {
            "components": ["shift"],
            "kind": "compound",
            "trials": 3,
            "horizon": 25,
            "seed": 3,
            "sampler": {"band": 1},
        },
    }
    outcome, _ = run(cfg)
    assert outcome.exit_code == EXIT_PASS
    assert outcome.results["detect"]["verdict"] == "confirmed_up_to_horizon"


def test_detect_run_refutes_mixing_for_contraction():
    cfg = {
        "window": {"kind": "bilateral", "m": 8},
        "operators": {"half": {"type": "scalar", "value": 0.5}},
        "experiment": "detect",
        "parameters": {
            "components": ["half"],
            "kind": "mixing",
            "trials": 3,
            "horizon": 12,
            "seed": 0,
            "sampler": {"radius": 0.2, "support": 1, "modulus_lo": 1.0},
        },
    }
    outcome, _ = run(cfg)
    assert outcome.exit_code == EXIT_FAIL
    assert outcome.results["detect"]["verdict"] == "refuted_with_certificate"


def test_criterion_run_scalar_free_passes():
    cfg = {
        "window": {"kind": "bilateral", "m": 48},
        "operators": {"shift": {"type": "forward_shift", "pos": 2.0, "neg": 3.0}},
        "experiment": "criterion",
        "parameters": {
            "components": ["shift"],
            "variant": "scalar_free",
            "nk": {"start": 1, "stop": 40},
            "sample_count": 6,
            "sampler": {"band": 1},
        },
    }
    outcome, report = run(cfg)
    assert outcome.exit_code == EXIT_PASS
    header, rows = outcome.tables["criterion"]
    assert header == ("n_k", "cond1", "cond2", "cond3")
    assert len(rows) == 40
    assert report["curves"]["criterion"]["rows"][0][0] == 1


def test_compound_criterion_guards_the_window_as_every_variant_does():
    """The compound variants build their backward map as the others do, so
    mass that a backward power would push past the bottom of a bilateral
    window is a WindowGuardError, not a silently shortened curve."""

    def criterion(**parameters):
        return {
            "window": {"kind": "bilateral", "m": 6},
            "operators": {"shift": {"type": "forward_shift", "pos": 2.0, "neg": 3.0}},
            "experiment": "criterion",
            "parameters": {"components": ["shift"], "sample_count": 1, "seed": 5, "sampler": {"band": 1}, **parameters},
        }

    with pytest.raises(WindowGuardError):
        run(criterion(variant="compound_scalar_free", horizon=6))
    with pytest.raises(WindowGuardError):
        run(criterion(variant="scalar_free", nk={"stop": 6}))


def test_criterion_on_a_lone_direct_sum_runs_on_its_components():
    def criterion(components):
        return {
            "window": {"kind": "bilateral", "m": 32},
            "operators": {
                "a": {"type": "forward_shift", "pos": 2.0, "neg": 3.0},
                "b": {"type": "forward_shift", "pos": 2.0, "neg": 4.0},
                "pair": {"type": "direct_sum", "parts": ["a", "b"]},
            },
            "experiment": "criterion",
            "parameters": {"components": components, "nk": {"stop": 10}, "sample_count": 3, "sampler": {"band": 1}},
        }

    lone, _ = run(criterion(["pair"]))
    assert lone.results == run(criterion(["a", "b"]))[0].results


def sum_config(experiment, components, **parameters):
    """A shift, a one-part direct sum of it and a two-part one."""
    return {
        "window": {"kind": "bilateral", "m": 16},
        "operators": {
            "a": {"type": "forward_shift", "pos": 2.0, "neg": 3.0},
            "solo": {"type": "direct_sum", "parts": ["a"]},
            "pair": {"type": "direct_sum", "parts": ["a", "a"]},
        },
        "experiment": experiment,
        "parameters": {"components": components, **parameters},
    }


@pytest.mark.parametrize(
    "experiment, parameters, message",
    [
        ("orbit", {"vector": {"basis": 0}, "horizon": 6}, "orbit takes exactly one operator"),
        (
            "criterion",
            {"variant": "compound_scalar_free", "horizon": 6, "sample_count": 2, "sampler": {"band": 1}},
            "compound variants take exactly one operator",
        ),
    ],
    ids=["orbit", "compound criterion"],
)
def test_one_operator_runners_take_a_direct_sum_by_its_parts(experiment, parameters, message):
    """A one-part direct sum runs as its part; a sum of two parts is two
    operators, a config error."""
    alone, _ = run(sum_config(experiment, ["a"], **parameters))
    assert run(sum_config(experiment, ["solo"], **parameters))[0].results == alone.results
    with pytest.raises(ConfigError, match=message) as err:
        run(sum_config(experiment, ["pair"], **parameters))
    assert err.value.field_path == "parameters.components"


def test_criterion_scaled_without_scalars_is_a_config_error():
    cfg = {
        "window": {"kind": "bilateral", "m": 16},
        "operators": {"shift": {"type": "forward_shift", "pos": 2.0, "neg": 3.0}},
        "experiment": "criterion",
        "parameters": {"components": ["shift"], "variant": "scaled", "nk": {"start": 1, "stop": 5}},
    }
    with pytest.raises(ConfigError) as err:
        run(cfg)
    assert err.value.field_path == "parameters.lambdas"


def test_criterion_roundtrip_passes():
    cfg = {
        "window": {"kind": "bilateral", "m": 48},
        "operators": {"shift": {"type": "forward_shift", "pos": 2.0, "neg": 3.0}},
        "experiment": "criterion",
        "parameters": {
            "components": ["shift"],
            "variant": "roundtrip",
            "nk": {"start": 1, "stop": 40},
            "eps": 0.1,
            "sample_count": 5,
            "sampler": {"band": 1},
        },
    }
    outcome, _ = run(cfg)
    assert outcome.exit_code == EXIT_PASS
    assert outcome.results["roundtrip"]["passed"] is True


def test_unknown_experiment_and_missing_fields():
    with pytest.raises(ConfigError) as err:
        run({"experiment": "divination"})
    assert err.value.field_path == "experiment"
    with pytest.raises(ConfigError) as err:
        run({"experiment": "junction"})
    assert err.value.field_path == "window"
    with pytest.raises(ConfigError) as err:
        run(shift_config() | {"parameters": {"components": ["ghost"], "sources": [], "targets": []}})
    assert err.value.field_path == "parameters.components[0]"


# -- scenarios ----------------------------------------------------------------


def test_scenario_registry_is_closed():
    assert set(SCENARIOS) == {
        "shift-compound-not-mixing",
        "diagonal-spectral-split",
        "cross-junction-equivalence",
        "scalar-derivation-roundtrip",
        "compound-plus-transitive",
        "direct-sum-diskcyclic-criterion",
    }
    with pytest.raises(ConfigError) as err:
        run({"experiment": "scenario", "parameters": {"id": "unknown-study"}})
    assert err.value.field_path == "parameters.id"


def test_scenario_compound_not_mixing_verdict_pair():
    cfg = {
        "experiment": "scenario",
        "parameters": {"id": "shift-compound-not-mixing", "trials": 3, "horizon": 30},
    }
    outcome, report = run(cfg)
    assert outcome.exit_code == EXIT_PASS
    assert report["results"]["compound"] == "confirmed_up_to_horizon"
    assert report["results"]["mixing"] == "refuted_with_certificate"
    assert report["results"]["disk_scan"]["tail_start"] == 3
    certified = report["results"]["fixed_certified_powers"]
    assert certified == list(range(2, 31))


def test_scenario_diagonal_split_reports_r_nine():
    outcome, report = run({"experiment": "scenario", "parameters": {"id": "diagonal-spectral-split"}})
    assert outcome.exit_code == EXIT_PASS
    assert report["results"]["r"] == 9


def test_scenario_diagonal_split_fails_when_horizon_too_short():
    outcome, _ = run(
        {"experiment": "scenario", "parameters": {"id": "diagonal-spectral-split", "horizon": 5}}
    )
    assert outcome.exit_code == EXIT_FAIL
    assert outcome.results["r"] is None


def test_scenario_cross_junction_equivalence_holds():
    cfg = {
        "experiment": "scenario",
        "parameters": {"id": "cross-junction-equivalence", "trials": 3, "horizon": 10},
    }
    outcome, _ = run(cfg)
    assert outcome.exit_code == EXIT_PASS
    assert outcome.results["equivalent"] is True


def test_scenario_roundtrip_passes():
    cfg = {
        "experiment": "scenario",
        "parameters": {"id": "scalar-derivation-roundtrip", "sample_count": 4},
    }
    outcome, _ = run(cfg)
    assert outcome.exit_code == EXIT_PASS


def test_scenario_compound_plus_transitive_confirms():
    cfg = {
        "experiment": "scenario",
        "parameters": {"id": "compound-plus-transitive", "trials": 4, "horizon": 30},
    }
    outcome, _ = run(cfg)
    assert outcome.exit_code == EXIT_PASS
    assert outcome.results["all_nonempty"] is True
    assert all(d["common"] for d in outcome.results["per_trial"])


def built_stacks(monkeypatch, cfg) -> list:
    """(repr of the operator, window, horizon) of every PowerStack the run
    of cfg builds."""
    built = []
    init = PowerStack.__init__

    def counted(stack, op, window, horizon):
        built.append((repr(op), window, horizon))
        init(stack, op, window, horizon)

    monkeypatch.setattr(PowerStack, "__init__", counted)
    run(cfg)
    return built


def test_a_run_builds_each_stack_once(monkeypatch):
    """A run shares each operator's stacks across its scans:
    compound-plus-transitive scans each shift twice per trial, and builds
    one stack of each shift and of its right inverse, where a stack per
    scan builds 4 per trial."""
    cfg = {"experiment": "scenario", "parameters": {"id": "compound-plus-transitive", "trials": 4, "horizon": 30}}
    built = built_stacks(monkeypatch, cfg)
    assert len(built) == len(set(built)) == 4
    assert {op.split("(")[0] for op, _, _ in built} == {"ForwardShift", "BackwardShift"}


@pytest.mark.parametrize(
    "parameters, count",
    [
        # T1, T2 and their right inverses: the criterion's backward maps,
        # built apart from the scans', are equal to them and share their stacks
        ({"id": "direct-sum-diskcyclic-criterion", "trials": 3, "horizon": 30, "stop": 30, "sample_count": 4}, 4),
        # one stack for every power of the witness, and the one-power stacks
        # the split builds to check its two eigenpairs
        ({"id": "diagonal-spectral-split"}, 3),
    ],
    ids=["direct-sum", "spectral-split"],
)
def test_a_run_builds_one_stack_per_operator_value(monkeypatch, parameters, count):
    built = built_stacks(monkeypatch, {"experiment": "scenario", "parameters": parameters})
    assert len(built) == count


def test_scenario_direct_sum_criterion_confirms():
    cfg = {
        "experiment": "scenario",
        "parameters": {
            "id": "direct-sum-diskcyclic-criterion",
            "trials": 3,
            "horizon": 30,
            "sample_count": 4,
        },
    }
    outcome, _ = run(cfg)
    assert outcome.exit_code == EXIT_PASS
    assert outcome.results["component_criteria"] == [True, True]
    assert outcome.results["detect"]["verdict"] == "confirmed_up_to_horizon"


def test_scenarios_are_compositions_of_experiments():
    shifts = {
        "t1": {"type": "forward_shift", "pos": 2.0, "neg": 3.0},
        "t2": {"type": "forward_shift", "pos": 2.0, "neg": 4.0},
    }

    def experiment(name, **parameters):
        cfg = {"window": {"kind": "bilateral", "m": 32}, "operators": shifts, "experiment": name}
        return run(cfg | {"parameters": parameters})[1]["results"]

    def scenario(**parameters):
        return run({"experiment": "scenario", "parameters": {"m": 32, **parameters}})[1]["results"]

    paired = scenario(id="direct-sum-diskcyclic-criterion", trials=2, horizon=20, stop=20, sample_count=3, seed=5)
    detect = experiment(
        "detect", components=["t1", "t2"], kind="k_bitransitive", trials=2, horizon=20, seed=5, sampler={"band": 1}
    )
    assert paired["detect"] == detect["detect"]
    criterion = experiment(
        "criterion", components=["t1", "t2"], nk={"start": 1, "stop": 20}, sample_count=3, seed=5, sampler={"band": 1}
    )
    assert paired["direct_sum_criterion"] == criterion["criterion"]

    compound = scenario(id="shift-compound-not-mixing", trials=1, horizon=12)
    ball = [{"center": {"basis": 0}, "radius": 0.5}]
    junction = experiment("junction", components=["t1"], horizon=12, sources=ball, targets=ball)
    assert compound["disk_scan"] == junction["scan"]


# -- main() and file outputs ---------------------------------------------------


def test_main_writes_report_and_csv(tmp_path, capsys):
    cfg = shift_config()
    cfg["output"] = {
        "json_path": str(tmp_path / "out" / "report.json"),
        "csv_path": str(tmp_path / "out" / "scan.csv"),
        "plot_dir": str(tmp_path / "plots"),
    }
    code = main([str(write_config(tmp_path, cfg))])
    assert code == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["tool"]["name"] == "disklab"
    assert report["verdict"] == "pass"
    assert report["config"]["experiment"] == "junction"
    lines = (tmp_path / "out" / "scan.csv").read_text().splitlines()
    assert lines[0] == "n,status,abs_alpha_1,residual"
    assert len(lines) == 10
    assert (tmp_path / "plots" / "lab_scan.csv").exists()
    assert "junction: pass" in capsys.readouterr().out


def test_main_reports_config_errors_on_stderr(tmp_path, capsys):
    cfg = shift_config()
    cfg["operators"]["shift"]["type"] = "sideways"
    code = main([str(write_config(tmp_path, cfg))])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert "operators.shift.type" in err
    assert "sideways" in err


@pytest.mark.parametrize(
    "output, field_path",
    [("report.json", "output"), ([], "output"), ({"json_path": 5}, "output.json_path")],
    ids=["string", "list", "non-string path"],
)
def test_main_checks_output_before_the_run(tmp_path, capsys, monkeypatch, output, field_path):
    ran = []
    monkeypatch.setattr(cli, "run", lambda cfg: ran.append(cfg))
    cfg = shift_config()
    cfg["output"] = output
    assert main([str(write_config(tmp_path, cfg))]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"config error at {field_path}:")
    assert ran == []


def test_main_missing_file_is_an_error(tmp_path, capsys):
    assert main([str(tmp_path / "absent.json")]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_main_refuses_a_non_finite_report(tmp_path, capsys, monkeypatch):
    """Reports are strict JSON: a NaN is an error, and no file is written."""

    def runner(values):
        return cli._outcome("pass", {"norms": [float("nan")]})

    monkeypatch.setitem(cli._RUNNERS, "orbit", cli._RUNNERS["orbit"]._replace(run=runner))
    cfg = sum_config("orbit", ["a"], vector={"basis": 0})
    cfg["output"] = {"json_path": str(tmp_path / "r.json"), "csv_path": str(tmp_path / "r.csv")}
    assert main([str(write_config(tmp_path, cfg))]) == EXIT_ERROR
    assert "JSON" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "experiment, m, pos, neg, parameters",
    [
        ("orbit", 800, 2.0, 3.0, {"components": ["shift"], "vector": {"basis": -790}, "horizon": 700}),
        (
            "criterion",
            64,
            1000.0,
            2000.0,
            {"components": ["shift"], "variant": "scalar_free", "nk": {"stop": 60}, "sample_count": 2, "sampler": {"band": 1}},
        ),
    ],
    ids=["orbit", "criterion"],
)
def test_main_overflowing_norms_are_errors_without_a_report(tmp_path, capsys, experiment, m, pos, neg, parameters):
    """Orbit norms whose squares pass the float range (3^n from n = 324, and
    the (1000, 2000) shift's powers by n = 60) end the run with exit 1 and
    no report, not with inf and NaN norms and a verdict drawn from them."""
    cfg = {
        "window": {"kind": "bilateral", "m": m},
        "operators": {"shift": {"type": "forward_shift", "pos": pos, "neg": neg}},
        "experiment": experiment,
        "parameters": parameters,
        "output": {"json_path": str(tmp_path / "r.json")},
    }
    assert main([str(write_config(tmp_path, cfg))]) == EXIT_ERROR
    assert "OperatorError" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_main_override_changes_the_run(tmp_path):
    cfg = shift_config()
    cfg["output"] = {"json_path": str(tmp_path / "r.json")}
    code = main([str(write_config(tmp_path, cfg)), "--override", "parameters.horizon=4"])
    assert code == EXIT_PASS
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["results"]["scan"]["horizon"] == 4
    assert report["config"]["parameters"]["horizon"] == 4


def test_reports_identical_modulo_timestamp(tmp_path):
    cfg = {
        "window": {"kind": "bilateral", "m": 32},
        "operators": {"shift": {"type": "forward_shift", "pos": 2.0, "neg": 3.0}},
        "experiment": "detect",
        "parameters": {
            "components": ["shift"],
            "kind": "compound",
            "trials": 3,
            "horizon": 20,
            "seed": 11,
            "sampler": {"band": 1},
        },
        "output": {},
    }
    paths = []
    for tag in ("a", "b"):
        c = json.loads(json.dumps(cfg))
        c["output"] = {
            "json_path": str(tmp_path / f"{tag}.json"),
            "csv_path": str(tmp_path / f"{tag}.csv"),
        }
        assert main([str(write_config(tmp_path, c, name=f"{tag}_cfg.json"))]) == EXIT_PASS
        paths.append(tag)
    rep_a = json.loads((tmp_path / "a.json").read_text())
    rep_b = json.loads((tmp_path / "b.json").read_text())
    rep_a.pop("created")
    rep_b.pop("created")
    rep_a["config"]["output"] = rep_b["config"]["output"] = None
    assert rep_a == rep_b
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_emit_plotdata_is_reproducible(tmp_path):
    outcome, _ = run(shift_config())
    first = emit_plotdata(outcome, tmp_path / "one")
    second = emit_plotdata(outcome, tmp_path / "two")
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()


def _readme_cli_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_lists_the_fields_of_every_table():
    """Each experiment's, scenario's and operator type's row in the README
    names exactly the fields its table reads, and the section names every
    sampler field."""
    section = _readme_cli_section()
    rows = dict(re.findall(r"^\| `([a-z_-]+)` \| (.*) \|$", section, re.M))
    for name, table in {**cli._RUNNERS, **SCENARIOS}.items():
        assert set(re.findall(r"`([a-z_]+)`", rows[name])) == set(table.fields), name
        for field in table.fields.values():
            for sub in getattr(field.read, "fields", ()):
                assert f"`{sub}`" in section, sub
    for name in cli._OPERATOR_TYPES:
        fields = {key for key, field in cli._OPERATOR.items() if field.only and name in field.only}
        assert set(re.findall(r"`([a-z_]+)`", rows[name])) == fields, name


def _objects(node, path=""):
    """(path, object) for every JSON object in node, node itself first."""
    if isinstance(node, dict):
        yield path, node
        for key, value in node.items():
            yield from _objects(value, cli._sub(path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _objects(value, f"{path}[{i}]")


def _base_configs():
    """Every _READING_RUNS config, every scenario on a window of its default
    size, and the README's example."""
    for name, runs in _READING_RUNS.items():
        yield from (_experiment(name, **params) for params in runs)
    for name, table in SCENARIOS.items():
        yield {"experiment": "scenario", "window": {"m": table.fields["m"].default}, "parameters": {"id": name}}
    yield json.loads(re.search(r"```json\n(.*?)```", _readme_cli_section(), re.S).group(1))


def test_every_object_refuses_a_key_it_does_not_read(monkeypatch):
    """A key no table holds, put into any object of a base config (the top
    level, the window, each operator, ball and vector, the nk range, the
    sampler, output and parameters), is a ConfigError at that key's path,
    raised before any solve, scan or check."""

    def computing(*args, **kwargs):
        raise _Computed

    for call in _COMPUTING:
        monkeypatch.setattr(cli, call, computing)
    walked = set()
    for cfg in _base_configs():
        with pytest.raises(_Computed):
            run(cfg)
        for i, (path, _) in enumerate(_objects(cfg)):
            walked.add(re.sub(r"\[\d+\]", "[]", path))
            mutated = json.loads(json.dumps(cfg))
            list(_objects(mutated))[i][1]["unread"] = 1
            with pytest.raises(ConfigError) as err:
                run(mutated)
            assert err.value.field_path == cli._sub(path, "unread")
    assert {
        "", "window", "operators.shift", "parameters", "parameters.sources[]", "parameters.sources[].center",
        "parameters.nk", "parameters.sampler", "parameters.vector", "output",
    } <= walked


def test_readme_example_exits_as_the_readme_says(tmp_path, monkeypatch):
    """The README's config runs through main and exits with the code its
    exit-code list gives for the verdict the run reaches."""
    section = _readme_cli_section()
    cfg = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    monkeypatch.chdir(tmp_path)
    code = main([str(write_config(tmp_path, cfg, name="readme.json"))])
    verdict = json.loads(Path(cfg["output"]["json_path"]).read_text())["verdict"]
    listed = " ".join(re.search(r"Exit codes: (.*?)\.\n", section, re.S).group(1).split())
    stem = verdict.split("_")[0]
    documented = [int(c) for c, words in re.findall(r"(\d) ([a-z]+(?: or [a-z]+)?)", listed)
                  if any(w.startswith(stem) for w in words.split())]
    assert documented == [code]


def test_console_entry_point_runs(tmp_path):
    cfg = shift_config(horizon=5)
    path = write_config(tmp_path, cfg)
    proc = subprocess.run(
        [sys.executable, "-m", "disklab.cli", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_PASS
    assert "junction: pass" in proc.stdout
