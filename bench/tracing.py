"""In-memory span tracer that wraps disklab's public functions from outside.

The tracer replaces each traced function at every name it is imported
under (``disklab.hitsolver.solve_hit``, ``disklab.transitivity.solve_hit``,
``disklab.solve_hit``, ...), so calls inside the library are seen too.  Each
call becomes one span (layer, parent, start, end); spans stay in memory and
are written out only when the benchmark ends.  ``WeightProfile.weight`` is
counted, not spanned: it runs millions of times per pass.  The counting
wrapper still costs a Python call per lookup, which the traced self time of
``operators`` carries.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from collections import Counter, defaultdict

ROOT_LAYER = "bench"

# (module, function, layer): the public functions each layer is traced at.
TRACED = (
    ("vectorspace", "sample_finite_support", "vectorspace.sample"),
    ("vectorspace", "sample_ball", "vectorspace.sample"),
    ("operators", "power_apply", "operators.power_apply"),
    ("operators", "growth", "operators.growth"),
    ("hitsolver", "power_map", "hitsolver.power_map"),
    ("hitsolver", "constrained_lsq", "hitsolver.constrained_lsq"),
    ("hitsolver", "certify_miss", "hitsolver.certify_miss"),
    ("hitsolver", "solve_hit", "hitsolver.solve_hit"),
    ("hitsolver", "random_search", "hitsolver.random_search"),
    ("hitsolver", "reverify_witness", "hitsolver.reverify_witness"),
    ("transitivity", "junction_scan", "transitivity.junction_scan"),
    ("transitivity", "detect", "transitivity.detect"),
    ("criteria", "check_scaled_criterion", "criteria.check"),
    ("criteria", "check_scalar_free_criterion", "criteria.check"),
    ("criteria", "derive_scalars", "criteria.check"),
    ("criteria", "roundtrip_scalar_derivation", "criteria.check"),
    ("criteria", "check_compound_scaled", "criteria.check"),
    ("criteria", "check_compound_scalar_free", "criteria.check"),
    ("criteria", "spectral_witness", "criteria.check"),
    ("criteria", "shift_witness", "criteria.check"),
    ("cli", "run", "cli.run"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TRACED))
OUTCOMES = ("hit", "miss_certified", "miss_uncertain")


def _disklab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "disklab" or name.startswith("disklab.")]


def _patch(original, replacement, patched: list) -> None:
    """Bind `replacement` at every disklab module name bound to `original`."""
    for mod in _disklab_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                patched.append((mod, attr, value))
                setattr(mod, attr, replacement)


def _restore(patched: list) -> None:
    for owner, attr, value in reversed(patched):
        setattr(owner, attr, value)
    patched.clear()


class OutcomeCounter:
    """Counts ``solve_hit`` outcomes; one wrapper call per solve, so cheap
    enough to stay installed in untraced runs."""

    def __init__(self):
        self.outcomes: Counter = Counter()
        self._patched: list = []

    def __enter__(self) -> "OutcomeCounter":
        original = sys.modules["disklab.hitsolver"].solve_hit
        outcomes = self.outcomes

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            outcomes[result.status] += 1
            return result

        _patch(original, counted, self._patched)
        return self

    def __exit__(self, *exc) -> None:
        _restore(self._patched)


class Tracer:
    """Collects spans and counters while entered as a context manager."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []  # [span id, child time] per open span
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def _open(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str, t0: float, t1: float) -> float:
        self._stack.pop()
        duration = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append((frame[0], parent[0] if parent else -1, layer, t0, t1))
        self.counters[layer + ".calls"] += 1
        self.counters[layer + ".self_s"] += duration - frame[1]
        return duration

    def root(self, fn, *args):
        """Run fn(*args) under the root span; returns (result, seconds)."""
        frame = self._open()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            self._close(frame, ROOT_LAYER, t0, t1)
        return result, t1 - t0

    def _wrap(self, fn, fn_name: str, layer: str):
        clock = time.perf_counter
        hook = _HOOKS.get(fn_name)

        def traced(*args, **kwargs):
            frame = self._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                duration = self._close(frame, layer, t0, t1)
            if hook is not None:
                hook(self, args, kwargs, result, duration)
            return result

        return traced

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "Tracer":
        """Patch every traced function at every disklab name bound to it."""
        from disklab.operators import WeightProfile

        for mod_name, fn_name, layer in TRACED:
            original = getattr(sys.modules["disklab." + mod_name], fn_name)
            _patch(original, self._wrap(original, fn_name, layer), self._patched)

        weight = WeightProfile.weight
        counters = self.counters

        def counted_weight(profile, m):
            counters["operators.weight_lookups"] += 1
            return weight(profile, m)

        self._patched.append((WeightProfile, "weight", weight))
        WeightProfile.weight = counted_weight
        return self

    def __exit__(self, *exc) -> None:
        _restore(self._patched)

    # -- results -----------------------------------------------------------
    def layer_metrics(self) -> dict[str, dict]:
        """Per-layer metrics of everything traced so far, as {name: {value, unit}}."""
        c = self.counters
        out: dict[str, dict] = {}

        def put(name: str, value: float, unit: str) -> None:
            out[name] = {"value": value, "unit": unit}

        for layer in (ROOT_LAYER,) + LAYERS:
            if layer != ROOT_LAYER:
                put(layer + ".calls", c[layer + ".calls"], "count")
            put(layer + ".self_s", c[layer + ".self_s"], "s")
        put("operators.weight_lookups", c["operators.weight_lookups"], "count")

        solves = c["hitsolver.solve_hit.calls"]
        lsq = self.samples["hitsolver.constrained_lsq"]
        put("hitsolver.constrained_lsq.us.p50", percentile(lsq, 50) * 1e6, "us")
        put("hitsolver.trs_per_problem", len(lsq) / solves if solves else 0.0, "calls/problem")
        for outcome in OUTCOMES:
            times = self.samples["hitsolver.solve_hit." + outcome]
            put(f"hitsolver.solve_hit.{outcome}.count", len(times), "count")
            put(f"hitsolver.solve_hit.{outcome}.ms.p50", percentile(times, 50) * 1e3, "ms")
            put(f"hitsolver.solve_hit.{outcome}.ms.tail", percentile(times, tail_rank(len(times))) * 1e3, "ms")
        attempts = c["hitsolver.certify_miss.calls"]
        put("hitsolver.certify_miss.yield", c["certificates"] / attempts if attempts else 0.0, "ratio")
        samples, search_s = c["random_search.samples"], c["random_search.seconds"]
        put("hitsolver.random_search.samples", samples, "count")
        put("hitsolver.random_search.samples_per_s", samples / search_s if search_s else 0.0, "1/s")
        return out

    def write(self, path, meta: str) -> None:
        """Write the spans as gzipped tab-separated lines after one header line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# " + meta + "\n# id\tparent\tlayer\tstart_s\tend_s\n")
            for sid, parent, layer, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{layer}\t{t0:.9f}\t{t1:.9f}\n")


def _on_lsq(tracer, args, kwargs, result, duration):
    tracer.samples["hitsolver.constrained_lsq"].append(duration)


def _on_solve(tracer, args, kwargs, result, duration):
    tracer.samples["hitsolver.solve_hit." + result.status].append(duration)


def _on_certify(tracer, args, kwargs, result, duration):
    if result is not None:
        tracer.counters["certificates"] += 1


def _on_search(tracer, args, kwargs, result, duration):
    samples = kwargs["samples"] if "samples" in kwargs else args[1]
    tracer.counters["random_search.samples"] += samples
    tracer.counters["random_search.seconds"] += duration


_HOOKS = {
    "constrained_lsq": _on_lsq,
    "solve_hit": _on_solve,
    "certify_miss": _on_certify,
    "random_search": _on_search,
}

_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def tail_rank(count: int) -> float:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = _PERCENTILES[0]
    for p in _PERCENTILES:
        if count * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]
