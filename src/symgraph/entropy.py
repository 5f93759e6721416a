"""Block entropy of word counts and scaling-law fits.

Under the uniform distribution the block entropy at length n is just the
natural log of the exact word count, and the topological entropy is the
asymptotic slope of log2(count) per symbol.  The scaling fit selects
among the three regimes the count growth can take once graphs are
combined: linear entropy (exponential counts), a stretched power law
g * n**mu, or logarithmic growth (polynomial counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .census import CountSeries

LINEAR = "linear"
POWER = "power"
LOGARITHMIC = "logarithmic"

_MODEL_ORDER = (LINEAR, POWER, LOGARITHMIC)


class EntropyPoint(NamedTuple):
    """One length's entropies; `count` is the field, shadowing `tuple.count`."""

    n: int
    count: int
    H: float        # natural log of the exact count
    h_top: float    # log2(count) / n


@dataclass(frozen=True)
class EntropySeries:
    points: tuple[EntropyPoint, ...]
    excluded: tuple[int, ...]  # lengths whose count was zero

    def __len__(self) -> int:
        return len(self.points)


def entropy_series(counts: CountSeries | Iterable[tuple[int, int]]) -> EntropySeries:
    """One EntropyPoint per length from exact counts; zero-count lengths are dropped.

    math.log on Python integers is exact to well below 1e-12 relative
    error regardless of magnitude, so huge counts are fine.
    """
    pairs = counts.totals() if isinstance(counts, CountSeries) else list(counts)
    points = []
    excluded = []
    for n, count in pairs:
        if count <= 0:
            excluded.append(n)
            continue
        points.append(EntropyPoint(n, count, math.log(count), math.log2(count) / n))
    return EntropySeries(tuple(points), tuple(excluded))


def topological_entropy_estimate(series: EntropySeries) -> float:
    """Slope of log2(count) against n, least squares over the series tail.

    The final half of the points damps the transient before the dominant
    growth takes over; for exactly exponential counts the estimate equals
    log2 of the growth ratio.
    """
    if len(series.points) < 2:
        raise ValueError("need at least two entropy points")
    pts = series.points
    tail = max(2, math.ceil(len(pts) / 2))
    pts = pts[len(pts) - tail:]
    xs = np.array([p.n for p in pts], dtype=float)
    ys = np.array([p.H / math.log(2) for p in pts], dtype=float)
    xbar, ybar = xs.mean(), ys.mean()
    return float(((xs - xbar) @ (ys - ybar)) / ((xs - xbar) @ (xs - xbar)))


@dataclass(frozen=True)
class ScalingFit:
    model: str
    h: float
    g: float
    mu: float
    e: float
    residual: float
    residuals: tuple[tuple[str, float], ...]  # all candidates, fixed order
    n_range: tuple[int, int]

    def report(self) -> str:
        lines = [
            "scaling fit report",
            f"model: {self.model}",
            f"samples: n = {self.n_range[0]} .. {self.n_range[1]}",
            f"h = {self.h!r}",
            f"g = {self.g!r}",
            f"mu = {self.mu!r}",
            f"e = {self.e!r}",
            "candidate residuals (rms):",
        ]
        for name, res in self.residuals:
            lines.append(f"  {name}: {res!r}")
        return "\n".join(lines) + "\n"


def _lstsq_rms(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = design @ coef - target
    return coef, float(np.sqrt(np.mean(resid * resid)))


def _power_objective(ns: np.ndarray, hs: np.ndarray, mu: float) -> tuple[float, float, float]:
    design = np.column_stack([ns ** mu, np.ones_like(ns)])
    (g, e), rms = _lstsq_rms(design, hs)
    return rms, float(g), float(e)


def _fit_power(ns: np.ndarray, hs: np.ndarray) -> tuple[float, float, float, float]:
    """Golden-section search for mu on (0.05, 0.95) to width 1e-6; inner fit is linear."""
    invphi = (math.sqrt(5) - 1) / 2
    lo, hi = 0.05, 0.95
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc = _power_objective(ns, hs, c)[0]
    fd = _power_objective(ns, hs, d)[0]
    while hi - lo > 1e-6:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = _power_objective(ns, hs, c)[0]
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = _power_objective(ns, hs, d)[0]
    mu = (lo + hi) / 2
    rms, g, e = _power_objective(ns, hs, mu)
    return mu, g, e, rms


def fit_scaling(series: EntropySeries) -> ScalingFit:
    """Fit the three candidate entropy laws and return the best.

    linear:       H = n*h + e          (h clamped at 0)
    power:        H = g * n**mu + e    (mu in (0.05, 0.95))
    logarithmic:  H = g * log(n) + e

    The full five-parameter law is ill-posed on short series; these three
    span the exponential, stretched-exponential and polynomial count
    regimes.  Ties break in that fixed order.
    """
    if len(series.points) < 8:
        raise ValueError("need at least 8 entropy points to fit")
    ns = np.array([p.n for p in series.points], dtype=float)
    hs = np.array([p.H for p in series.points], dtype=float)
    n_range = (series.points[0].n, series.points[-1].n)

    if float(np.ptp(hs)) == 0.0:
        flat = hs[0]
        residuals = tuple((name, 0.0) for name in _MODEL_ORDER)
        return ScalingFit(LINEAR, 0.0, 0.0, 0.0, float(flat), 0.0, residuals, n_range)

    design = np.column_stack([ns, np.ones_like(ns)])
    (h_lin, e_lin), rms_lin = _lstsq_rms(design, hs)
    if h_lin < 0:
        h_lin, e_lin = 0.0, float(hs.mean())
        rms_lin = float(np.sqrt(np.mean((hs - e_lin) ** 2)))

    mu, g_pow, e_pow, rms_pow = _fit_power(ns, hs)

    design = np.column_stack([np.log(ns), np.ones_like(ns)])
    (g_log, e_log), rms_log = _lstsq_rms(design, hs)

    candidates = {
        LINEAR: (rms_lin, dict(h=float(h_lin), g=0.0, mu=0.0, e=float(e_lin))),
        POWER: (rms_pow, dict(h=0.0, g=g_pow, mu=float(mu), e=e_pow)),
        LOGARITHMIC: (rms_log, dict(h=0.0, g=float(g_log), mu=0.0, e=float(e_log))),
    }
    best = min(_MODEL_ORDER, key=lambda name: (candidates[name][0], _MODEL_ORDER.index(name)))
    rms, params = candidates[best]
    residuals = tuple((name, candidates[name][0]) for name in _MODEL_ORDER)
    return ScalingFit(best, residual=rms, residuals=residuals, n_range=n_range, **params)
