import math

import numpy as np
import pytest

from ussir import criteria
from ussir.criteria import (
    CRITERIA_CSV_HEADER,
    ex1_extinction,
    ex1b_persistence,
    ex34a_persistence,
    ex34b_extinction,
    generic_alpha_estimate,
    report_for_model,
    simplex_grid,
    xc_report,
)
from ussir.expr import BoundsPair, bounds
from ussir.levy import SMALL, LevyMeasure
from ussir.models import OCTANT, build_custom


def B(inf, sup=None):
    return BoundsPair(inf, sup if sup is not None else inf)


class TestEx1Criterion:
    def test_table1_rate(self, scenario):
        _, model = scenario("table1")
        report = report_for_model(model)
        assert report.classification == "extinct"
        assert report.extinction_rate_lb == pytest.approx(0.16, abs=1e-12)

    def test_boundary_is_indeterminate(self):
        report = ex1_extinction(beta=B(0.2, 0.5), gamma=B(0.5, 0.9), g1=0.0)
        assert report.classification == "indeterminate"
        assert report.extinction_rate_lb == pytest.approx(0.0, abs=1e-15)

    def test_formula_arithmetic(self):
        report = ex1_extinction(beta=B(0.1, 0.5), gamma=B(1.0, 1.2), g1=0.1)
        assert report.classification == "extinct"
        assert report.extinction_rate_lb == pytest.approx(0.3, abs=1e-12)

    def test_pure_function_of_bounds(self):
        a = ex1_extinction(B(0.2, 0.4), B(0.76, 0.84), 0.1)
        b = ex1_extinction(B(0.2, 0.4), B(0.76, 0.84), 0.1)
        assert a == b

    def test_monotone_in_large_jump_cap(self):
        rates = [
            ex1_extinction(B(0.2, 0.4), B(0.76, 0.84), g1).extinction_rate_lb
            for g1 in (0.0, 0.05, 0.1)
        ]
        assert rates[0] >= rates[1] >= rates[2]


class TestEx1bCriterion:
    def test_table2_values(self, scenario):
        _, model = scenario("table2")
        report = report_for_model(model)
        oracle = 0.55 - 0.13 - 2.0 * (
            (0.141 + 0.02 * math.sqrt(2.0)) ** 2 + 0.019 - math.log(0.982 * 0.9)
        )
        assert report.classification == "persistent"
        assert report.lambda0 == pytest.approx(0.55, abs=1e-12)
        assert report.lam == pytest.approx(oracle, abs=1e-12)
        assert report.lam == pytest.approx(0.0776367, abs=1e-5)
        assert report.mean_infected_lb >= 0.14115 - 1e-4

    def test_zero_noise_formula(self):
        report = ex1b_persistence(
            beta=B(0.3), gamma1=B(0.1), gamma2=B(0.5), sigma=B(0.0), h1=0.0, h2=0.0, g2=0.0
        )
        assert report.classification == "persistent"
        assert report.lam == pytest.approx(0.4, abs=1e-15)

    def test_violated_ordering_gate(self):
        report = ex1b_persistence(
            beta=B(0.6), gamma1=B(0.1), gamma2=B(0.5), sigma=B(0.0), h1=0.0, h2=0.0, g2=0.0
        )
        assert report.classification == "indeterminate"
        assert not report.condition("beta_inf_le_gamma2_inf").satisfied


class TestXcCriterion:
    def test_table3_report(self, scenario):
        _, model = scenario("table3")
        report = report_for_model(model)
        denom = 0.066 + 0.88 + 0.08
        sig_inf_sq = (0.12 - 0.01 * math.sqrt(2.0)) ** 2
        oracle_r = 0.14 * 0.56 / (0.066 * denom) - sig_inf_sq * 0.56**2 / (
            2.0 * 0.066**2 * denom
        )
        assert report.classification == "extinct"
        assert report.invariant_set_bound == pytest.approx(0.56 / 0.066, abs=1e-12)
        assert report.invariant_set_bound == pytest.approx(8.484848, abs=1e-6)
        assert report.r_tilde == pytest.approx(oracle_r, abs=1e-12)
        assert report.r_tilde == pytest.approx(0.7646, abs=5e-4)
        assert report.extinction_rate_lb == pytest.approx(denom * (1 - oracle_r), abs=1e-12)
        assert report.extinction_rate_lb == pytest.approx(0.241, abs=1e-3)
        gate = report.condition("sigma_inf_sq_le_low_noise_cap")
        assert gate.satisfied
        assert gate.lhs == pytest.approx(sig_inf_sq, abs=1e-12)
        assert gate.lhs < 0.0121
        assert gate.rhs == pytest.approx(0.0165, abs=1e-12)

    def test_table4_high_noise_regime(self, scenario):
        _, model = scenario("table4")
        report = report_for_model(model)
        sig_inf_sq = (0.55 - 0.003 * math.sqrt(2.0)) ** 2
        assert report.classification == "extinct"
        gate = report.condition("sigma_inf_sq_gt_high_noise_floor")
        assert gate.satisfied
        assert sig_inf_sq >= 0.29
        oracle_rate = (0.066 + 0.88 + 0.08) - 0.14**2 / (2.0 * sig_inf_sq)
        assert report.extinction_rate_lb == pytest.approx(oracle_rate, abs=1e-12)
        assert report.extinction_rate_lb == pytest.approx(0.993, abs=1e-3)

    def test_table5_persistence(self, scenario):
        _, model = scenario("table5")
        report = report_for_model(model)
        denom = 0.074 + 0.35 + 0.22
        oracle_r = 0.55 * 0.44 / (0.074 * denom) - (0.24 + 0.01 * math.sqrt(2.0)) ** 2 * 0.56**2 / (
            2.0 * 0.066**2 * denom
        )
        assert report.classification == "persistent"
        assert report.r_tilde == pytest.approx(oracle_r, abs=1e-9)
        assert report.r_tilde > 1.0
        assert report.mean_infected_lb == pytest.approx(0.074 * (oracle_r - 1.0) / 0.55, abs=1e-9)

    def test_rejects_zero_mortality(self):
        with pytest.raises(ValueError, match="mortality"):
            xc_report(B(0.5), B(0.0), B(0.13), B(0.9), B(0.15), B(0.12))

    def test_r_tilde_monotone_in_noise_floor(self):
        values = []
        for s in (0.05, 0.1, 0.2):
            report = xc_report(
                B(0.44, 0.56), B(0.066, 0.074), B(0.12, 0.14), B(0.88, 0.92), B(0.08, 0.22), B(s, s)
            )
            values.append(report.r_tilde)
        assert values[0] >= values[1] >= values[2]


class TestEx34Criteria:
    def test_table6_values(self, scenario):
        _, model = scenario("table6")
        report = report_for_model(model)
        growth = min(2.0, 0.1 - 0.0021)
        oracle_lam = growth - ((0.16**2 + 0.13**2) / 2.0 + 0.0001 - math.log(0.99975 * 0.9988))
        assert report.classification == "persistent"
        assert report.lambda0 == pytest.approx(1.16, abs=1e-12)
        assert report.lam == pytest.approx(oracle_lam, abs=1e-12)
        assert report.lam == pytest.approx(0.075, abs=1e-3)
        assert report.mean_infected_lb == pytest.approx(0.064, abs=1e-3)
        assert report.mean_infected_lb >= 0.064

    def test_huge_cap_zero_noise(self):
        report = ex34a_persistence(
            mu=B(0.1), gamma2=B(0.5), gamma3=B(0.2), sigma1=B(0.0), sigma2=B(0.0),
            h1=0.0, h2=0.0, g2=0.0, cap=1e9,
        )
        assert report.lam == pytest.approx(0.4, abs=1e-15)
        assert report.lambda0 == pytest.approx(1.2, abs=1e-15)

    def test_mu_dominating_is_indeterminate(self):
        report = ex34a_persistence(
            mu=B(0.6), gamma2=B(0.5), gamma3=B(0.2), sigma1=B(0.0), sigma2=B(0.0),
            h1=0.0, h2=0.0, g2=0.0, cap=2.0,
        )
        assert report.classification == "indeterminate"

    def test_table7_rate(self, scenario):
        _, model = scenario("table7")
        report = report_for_model(model)
        assert report.classification == "extinct"
        assert report.extinction_rate_lb == pytest.approx(0.165, abs=1e-3)
        assert report.extinction_rate_lb == pytest.approx(0.31 + 0.002 - 0.145 - 0.002, abs=1e-12)

    def test_ex34b_boundary(self):
        report = ex34b_extinction(mu=B(0.1), beta=B(0.3, 0.6), gamma2=B(0.5), g1=0.0)
        assert report.extinction_rate_lb == pytest.approx(0.0, abs=1e-15)
        assert report.classification == "indeterminate"

    def test_ex34b_arithmetic(self):
        report = ex34b_extinction(mu=B(0.1), beta=B(0.1, 0.2), gamma2=B(0.5), g1=0.05)
        assert report.extinction_rate_lb == pytest.approx(0.3, abs=1e-12)


class TestGenericEstimates:
    def test_constant_decay_recovered(self):
        model = build_custom(
            domain=OCTANT, drift=("0", "0-0.7*y", "0"), diffusion=(("0", "0", "0"),)
        )
        est = generic_alpha_estimate(model, [0.0, 1.0, 2.0], simplex_grid(20, 20))
        assert est == pytest.approx(-0.7, abs=1e-12)

    def test_jump_only_constant_ratio(self):
        model = build_custom(
            domain=OCTANT,
            drift=("0", "0", "0"),
            diffusion=(("0", "0", "0"),),
            small_jump=("0", "0.5*y", "0"),
            large_jump=("0", "0.25*y", "0"),
        )
        est = generic_alpha_estimate(model, [0.0], simplex_grid(20, 20))
        expected = 2.0 * (math.log(1.5) - 0.5) + 2.0 * math.log(1.25)
        assert est == pytest.approx(expected, abs=1e-9)

    def test_ex1_grid_estimate_sharper_than_closed_form(self, scenario):
        _, model = scenario("table1")
        closed = report_for_model(model)
        grid = simplex_grid(200, 200)
        t_grid = np.linspace(0.0, 2.0 * math.pi, 13)
        est = generic_alpha_estimate(model, t_grid, grid)
        # the full functional keeps the diffusion gain and exact log terms the
        # closed form drops, so the grid estimate lands well below -rate
        assert est <= -closed.extinction_rate_lb + 1e-9
        assert -0.33 < est < -0.29  # frozen regression window

    def test_permutation_invariance(self):
        model = build_custom(
            domain=OCTANT, drift=("0", "0-0.3*y", "0"), diffusion=(("0", "0", "0"),)
        )
        grid = simplex_grid(20, 20)
        shuffled = grid[np.random.default_rng(0).permutation(len(grid))]
        a = generic_alpha_estimate(model, [0.0, 0.5], grid)
        b = generic_alpha_estimate(model, [0.5, 0.0], shuffled)
        assert a == b

    def test_mark_dependent_jump_integrated_by_quadrature(self):
        # the small-region term is the integral of ln(1 + u/2) - u/2 over (-1, 1)
        model = build_custom(
            domain=OCTANT, drift=("0", "0", "0"), diffusion=(("0", "0", "0"),), small_jump=("0", "0.5*u*y", "0")
        )
        assert model.mark_rules[SMALL][0].size == 1001
        est = generic_alpha_estimate(model, [0.0], simplex_grid(20, 20))
        assert est == pytest.approx(3.0 * math.log(1.5) + math.log(2.0) - 2.0, abs=1e-6)

    def test_mark_free_model_needs_no_quadrature(self, monkeypatch):
        calls = []
        quadrature = LevyMeasure.quadrature
        monkeypatch.setattr(LevyMeasure, "quadrature", lambda *args: calls.append(args) or quadrature(*args))
        model = build_custom(
            domain=OCTANT, drift=("0", "0", "0"), diffusion=(("0", "0", "0"),),
            small_jump=("0", "0.5*y", "0"), large_jump=("0", "0.25*y", "0"),
        )
        generic_alpha_estimate(model, [0.0, 1.0], simplex_grid(20, 20))
        assert calls == []

    BAD_T_GRID = "t_grid must be a one-dimensional, non-empty grid of finite times"

    @pytest.mark.parametrize(
        "rows,t_grid,states,message",
        [
            (None, [], None, BAD_T_GRID),
            (None, [0.0, math.nan], None, BAD_T_GRID),
            (None, [math.inf], None, BAD_T_GRID),
            (None, 0.0, None, BAD_T_GRID),
            (None, [0.0], np.empty((0, 3)), r"state_grid must have shape \(N, 3\) with N > 0"),
            ({"drift": ("0", "y*t^400-y*t^400", "0")}, [0.0, 10.0], None, r"the decay functional is nan at t = 10\.0"),
            # a large jump of -2y takes y below zero: its log-ratio is not real
            ({"large_jump": ("0", "-2*y", "0")}, [0.0], None,
             r"^jump ratio at or below -1 on the grid; positivity violated$"),
        ],
        ids=["empty-t", "nan-t", "inf-t", "scalar-t", "empty-states", "nan-functional", "jump-ratio"],
    )
    def test_refuses_grids_it_cannot_estimate_on(self, scenario, rows, t_grid, states, message):
        # no time or value may be dropped, so none can leave -inf or a partial maximum behind
        if rows is None:
            _, model = scenario("table1")
        else:
            model = build_custom(domain=OCTANT, **{"drift": ("0", "0", "0"), "diffusion": (("0", "0", "0"),), **rows})
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
            generic_alpha_estimate(model, t_grid, simplex_grid(8, 8) if states is None else states)

    def test_requires_positive_grid(self, scenario):
        _, model = scenario("table1")
        with pytest.raises(ValueError, match="positive"):
            generic_alpha_estimate(model, [0.0], np.array([[0.5, 0.0, 0.5]]))
        with pytest.raises(ValueError, match="positive"):
            generic_alpha_estimate(model, [0.0], np.array([[0.5, 0.0, 0.5], [0.3, 0.3, 0.4]]))
        with pytest.raises(ValueError, match=r"shape \(N, 3\)"):
            generic_alpha_estimate(model, [0.0], np.array([0.3, 0.3, 0.4]))


class TestReportPlumbing:
    def test_custom_model_has_no_closed_form(self):
        model = build_custom(
            domain=OCTANT, drift=("0", "0", "0"), diffusion=(("0", "0", "0"),)
        )
        with pytest.raises(ValueError, match="closed-form"):
            report_for_model(model)

    def test_text_round(self, scenario):
        _, model = scenario("table3")
        report = report_for_model(model)
        text = report.to_text()
        assert "classification: extinct" in text
        assert "invariant_set_bound: 8.4848484" in text
        assert text == report.to_text()

    @pytest.mark.parametrize("name", ["table1", "table6"])
    def test_report_bounds_only_what_its_criterion_reads(self, scenario, monkeypatch, name):
        _, model = scenario(name)
        methods = []

        def recording(fn):
            pair = bounds(fn)
            methods.append(pair.method)
            return pair

        monkeypatch.setattr(criteria, "bounds", recording)
        report_for_model(model)
        assert methods and "grid" not in methods  # xi is grid-bounded and read by neither

    def test_csv_row_matches_header(self, scenario):
        _, model = scenario("table1")
        row = report_for_model(model).to_csv_row()
        assert len(row) == len(CRITERIA_CSV_HEADER)
        assert row[0] == "ex1"
        assert row[1] == "extinct"
