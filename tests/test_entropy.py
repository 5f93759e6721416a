import math

import pytest

from symgraph import (
    complete_graph,
    complete_linear_system,
    count_series,
    entropy_series,
    fit_scaling,
    golden_graph,
    golden_linear_system,
    linear_graph,
    milestone_counts,
    preset_bounds,
    topological_entropy_estimate,
    two_cycle_graph,
)

MU = (1 + math.sqrt(5)) / 2


class TestEntropySeries:
    def test_two_cycle_constant(self):
        series = entropy_series(count_series(two_cycle_graph(), 30))
        for p in series.points:
            assert p.H == pytest.approx(math.log(2), abs=1e-12)

    def test_complete_graph_rate(self):
        series = entropy_series(count_series(complete_graph(), 40))
        for p in series.points:
            assert p.h_top == pytest.approx(math.log2(3), abs=1e-12)
            assert p.count == 3 ** p.n

    def test_golden_graph_rate_converges(self):
        # H(n)/n approaches log(mu) like log(amplitude)/n ~ 1.12/n: the gap
        # is 0.028 at n = 40 and dips under 0.01 past n ~ 112
        series = entropy_series(count_series(golden_graph(), 120))
        assert abs(series.points[39].H / 40 - math.log(MU)) < 0.03
        assert abs(series.points[-1].H / 120 - math.log(MU)) < 0.01

    def test_huge_counts_logged_accurately(self):
        # H must track exact integers far beyond float range
        series = entropy_series([(1, 10 ** 400)])
        assert series.points[0].H == pytest.approx(400 * math.log(10), rel=1e-12)

    def test_zero_counts_excluded(self):
        series = entropy_series([(1, 2), (2, 1), (3, 0), (4, 0)])
        assert [p.n for p in series.points] == [1, 2]
        assert series.excluded == (3, 4)


class TestTopologicalEntropy:
    def test_complete_graph_exact(self):
        series = entropy_series(count_series(complete_graph(), 40))
        assert abs(topological_entropy_estimate(series) - math.log2(3)) < 1e-9

    def test_golden_graph(self):
        series = entropy_series(count_series(golden_graph(), 60))
        assert abs(topological_entropy_estimate(series) - math.log2(MU)) < 1e-6

    def test_linear_graph_near_zero(self):
        series = entropy_series(count_series(linear_graph(), 400))
        assert abs(topological_entropy_estimate(series)) <= 0.01

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            topological_entropy_estimate(entropy_series([(1, 2)]))


class TestScalingFit:
    def test_complete_graph_linear(self):
        fit = fit_scaling(entropy_series(count_series(complete_graph(), 40)))
        assert fit.model == "linear"
        assert abs(fit.h - math.log(3)) < 1e-6
        assert fit.residual < 1e-9

    def test_linear_graph_logarithmic(self):
        # H = ln(2n+1); the log model wins over the full range, and past the
        # small-n transient the fit is essentially exact
        series = entropy_series(count_series(linear_graph(), 400))
        fit = fit_scaling(series)
        assert fit.model == "logarithmic"
        tail = entropy_series(
            [(p.n, p.count) for p in series.points if p.n >= 100]
        )
        tail_fit = fit_scaling(tail)
        assert tail_fit.model == "logarithmic"
        assert tail_fit.residual < 1e-3

    def test_complete_linear_power(self):
        fit = fit_scaling(entropy_series(milestone_counts(complete_linear_system(12), 12)))
        assert fit.model == "power"
        assert 0.45 <= fit.mu <= 0.55

    def test_golden_linear_power_and_bounds(self):
        samples = milestone_counts(golden_linear_system(10), 10)
        fit = fit_scaling(entropy_series(samples))
        assert fit.model == "power"
        assert 0.4 <= fit.mu <= 0.6
        # H(n)/sqrt(n) sits between the exact log bounds normalized the same way
        for t, (n, count) in enumerate(samples, start=1):
            report = preset_bounds("golden-linear", t)[-1]
            h_norm = math.log(count) / math.sqrt(n)
            assert math.log(report.lower) / math.sqrt(n) <= h_norm
            assert h_norm <= math.log(report.upper) / math.sqrt(n)

    def test_selected_residual_minimal(self):
        for series in (
            entropy_series(count_series(complete_graph(), 40)),
            entropy_series(count_series(linear_graph(), 100)),
            entropy_series(milestone_counts(complete_linear_system(12), 12)),
        ):
            fit = fit_scaling(series)
            for _, res in fit.residuals:
                assert fit.residual <= res + 1e-15

    def test_scale_consistency(self):
        # feeding log2-entropy scales g and e by log2(e), leaves mu and the
        # selected model alone
        samples = milestone_counts(complete_linear_system(12), 12)
        nat = fit_scaling(entropy_series(samples))
        factor = 1 / math.log(2)

        class _Scaled:
            pass

        scaled_series = entropy_series(samples)
        scaled_points = tuple(
            type(p)(p.n, p.count, p.H * factor, p.h_top) for p in scaled_series.points
        )
        scaled = fit_scaling(type(scaled_series)(scaled_points, ()))
        assert scaled.model == nat.model
        assert abs(scaled.mu - nat.mu) < 1e-9
        assert scaled.g == pytest.approx(nat.g * factor, rel=1e-9)
        assert scaled.e == pytest.approx(nat.e * factor, rel=1e-9)

    def test_degenerate_constant_series(self):
        fit = fit_scaling(entropy_series([(n, 2) for n in range(1, 12)]))
        assert fit.model == "linear"
        assert fit.h == 0.0 and fit.g == 0.0
        assert fit.e == pytest.approx(math.log(2))

    def test_h_clamped_nonnegative(self):
        # a decreasing entropy series must not produce h < 0
        counts = [(n, max(1, 1000 - 90 * n)) for n in range(1, 12)]
        fit = fit_scaling(entropy_series(counts))
        assert fit.h >= 0.0

    def test_needs_eight_points(self):
        with pytest.raises(ValueError):
            fit_scaling(entropy_series([(n, 2 ** n) for n in range(1, 6)]))

    def test_report_text(self):
        fit = fit_scaling(entropy_series(count_series(complete_graph(), 40)))
        text = fit.report()
        assert "model: linear" in text
        assert "candidate residuals" in text
        assert "n = 1 .. 40" in text
