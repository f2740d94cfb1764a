"""Host-speed probe: fixed work shaped like disklab's hot loops.

On a shared host the machine's speed drifts by up to ±30% over minutes,
which is more than a regression bound can absorb.  The benchmark therefore
times this probe between the checks of every pass and reports pass times
scaled by ``PROBE_REF_S / mean probe time``: seconds on a host where the
probe takes ``PROBE_REF_S``.  The raw times are reported alongside.  The
probe's own time is kept out of the pass time.

The probe imports nothing from disklab, so a change to the library cannot
change it.  Its parts mirror the shapes of the library's hot paths at the
commit that defined the benchmark: per-index weight lookups, weighted-shift
run products, secular-equation (trust-region) solves on a 65-dimensional
window, and one batch of the sampling oracle at dimension 97.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# typical probe time on the host that defined the benchmark (2-core Xeon,
# Python 3.11, numpy 2.4); a constant, so it only sets the unit
PROBE_REF_S = 0.035
PROBE_EVERY_S = 1.0

_DIM = 65
_SAMPLE_BATCH, _SAMPLE_DIM = 1000, 97


def _weight(table: dict, m: int) -> float:
    w = table.get(m)
    if w is not None:
        return w
    return 2.0 if m >= 0 else 3.0


def _secular(q: np.ndarray, s: np.ndarray, eps: float) -> float:
    """Newton iteration on 1/||d(mu)|| - 1/eps with bisection safeguard."""

    def nrm(mu: float) -> float:
        return math.sqrt(float(np.sum(s / (q + mu) ** 2)))

    mu_lo, mu_hi = 0.0, math.sqrt(float(np.sum(s))) / eps
    mu = 0.5 * mu_hi
    val = nrm(mu)
    for _ in range(200):
        if abs(val - eps) <= 1e-14 * eps:
            break
        deriv = float(np.sum(s / (q + mu) ** 3)) / val**3
        if val > eps:
            mu_lo = mu
        else:
            mu_hi = mu
        nxt = mu - (1.0 / val - 1.0 / eps) / deriv
        if not (mu_lo < nxt < mu_hi):
            nxt = 0.5 * (mu_lo + mu_hi)
        if nxt == mu:
            break
        mu, val = nxt, nrm(nxt)
    return mu


def _solver_work(rng: np.random.Generator) -> float:
    table = {5: 2.5}
    acc = 0.0
    for n in range(1, 13):
        for _ in range(20):
            weights = np.array([_weight(table, m) for m in range(-32, 32)], dtype=float)
            prods = np.ones(_DIM - n)
            for t in range(n):
                prods *= weights[t : t + _DIM - n]
            coeffs = np.zeros(_DIM, dtype=np.complex128)
            coeffs[: _DIM - n] = 0.3 * prods / prods.max()
            target = rng.standard_normal(_DIM) + 1j * rng.standard_normal(_DIM)
            g = np.conj(coeffs) * target
            q = np.abs(coeffs) ** 2
            mu = _secular(q, np.abs(g) ** 2, 0.45)
            d = g / (q + mu)
            acc += float(np.linalg.norm(coeffs * d - target)) + abs(complex(np.vdot(d, g)))
    return acc


def _sampling_work(rng: np.random.Generator) -> float:
    b, d = _SAMPLE_BATCH, _SAMPLE_DIM
    dirs = rng.standard_normal((b, d)) + 1j * rng.standard_normal((b, d))
    norms = np.linalg.norm(dirs, axis=1)
    radii = 0.5 * rng.uniform(size=b) ** (1.0 / (2 * d))
    z = dirs * (radii / norms)[:, None]
    alphas = np.sqrt(rng.uniform(size=b)) * np.exp(2j * np.pi * rng.uniform(size=b))
    return float(np.linalg.norm(alphas[:, None] * z - z[0], axis=1).min())


def probe() -> float:
    """Run the fixed probe once; returns its wall time in seconds."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    _solver_work(rng)
    _sampling_work(rng)
    return time.perf_counter() - t0


class HostSampler:
    """Probes at most once per PROBE_EVERY_S seconds and keeps the probes'
    own wall and CPU time apart from the work's."""

    def __init__(self):
        self.times: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._last = -math.inf

    def maybe_probe(self) -> None:
        t0 = time.perf_counter()
        if t0 - self._last < PROBE_EVERY_S:
            return
        c0 = time.process_time()
        self.times.append(probe())
        self._last = time.perf_counter()
        self.spent_wall += self._last - t0
        self.spent_cpu += time.process_time() - c0

    def scale(self) -> float:
        """Factor from this host's current speed to the reference speed."""
        return PROBE_REF_S / statistics.mean(self.times)
