#!/usr/bin/env python3
"""Block entropy and scaling-law selection.

Under the uniform measure the block entropy H(n) is the log of the exact
word count, so every growth regime leaves a distinct entropy signature:

  exponential counts   -> H linear in n        (positive entropy rate)
  polynomial counts    -> H logarithmic in n   (zero entropy rate)
  stretched exponential-> H ~ g * n**mu        (sublinear, 0 < mu < 1)

The fit picks among exactly these three laws by least squares.

Run:  python demos/entropy_scaling.py
"""

import math

from symgraph import (
    complete_graph,
    complete_linear_system,
    count_series,
    entropy_series,
    fit_scaling,
    golden_graph,
    linear_graph,
    milestone_counts,
    topological_entropy_estimate,
)


def fit_and_print(label, series):
    fit = fit_scaling(series)
    print(f"\n{label}")
    print(f"  points: n = {fit.n_range[0]} .. {fit.n_range[1]} ({len(series.points)})")
    print(f"  selected model: {fit.model}")
    print(f"  parameters: h={fit.h:.6f} g={fit.g:.6f} mu={fit.mu:.6f} e={fit.e:.6f}")
    residuals = ", ".join(f"{name}={rms:.3e}" for name, rms in fit.residuals)
    print(f"  candidate residuals: {residuals}")
    return fit


def main():
    print("topological entropy estimates (log2 per symbol):")
    for graph, n_max, target in (
        (complete_graph(), 40, math.log2(3)),
        (golden_graph(), 60, math.log2((1 + math.sqrt(5)) / 2)),
        (linear_graph(), 400, 0.0),
    ):
        est = topological_entropy_estimate(entropy_series(count_series(graph, n_max)))
        print(f"  {graph.name:>9}: {est:.9f}  (expected {target:.9f})")

    fit_and_print(
        "complete graph, n <= 40 (exponential counts)",
        entropy_series(count_series(complete_graph(), 40)),
    )
    fit_and_print(
        "linear graph, n <= 400 (polynomial counts)",
        entropy_series(count_series(linear_graph(), 400)),
    )

    fit = fit_and_print(
        "complete+linear combination at milestones n = (t+1)^4, t <= 12",
        entropy_series(milestone_counts(complete_linear_system(12), 12)),
    )
    print(f"\n  the stretched exponent shows up as mu = {fit.mu:.3f} (about 1/2):")
    print("  H(n) grows like sqrt(n), so the count grows like rho**sqrt(n).")


if __name__ == "__main__":
    main()
