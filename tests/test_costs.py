import json
import math

import numpy as np
import pytest

from schrodingerize import (
    AccuracyWarning,
    InvalidArgumentError,
    TransportModel,
    assemble_eta_diagonal,
    gibbs_cost,
    ground_state_cost,
    hamsim_cost,
    make_grid,
    schrodingerisation_cost,
    transport_norm_parity,
)


class TestHamsimCost:
    def test_frozen_reference_point(self):
        # base-2 convention: tau = 2, tau/eps = 200,
        # queries = 2*log2(200)/log2(log2(200)) = 5.2100...
        report = hamsim_cost(s=2, t=1, max_norm=1, epsilon=0.01, m_h=4)
        assert report.tau == 2.0
        assert report.queries == pytest.approx(5.210002067360255, rel=1e-12)
        assert report.queries == pytest.approx(5.210, abs=1e-3)
        ell = math.log2(200.0)
        expected_gates = 2 * (4 + ell**2.5) * ell / math.log2(ell)
        assert report.gates == pytest.approx(expected_gates, rel=1e-12)

    def test_doubling_time(self):
        base = hamsim_cost(2, 1, 1, 0.01, 4)
        doubled = hamsim_cost(2, 2, 1, 0.01, 4)
        assert doubled.tau == 2 * base.tau
        assert doubled.queries > 2 * base.queries  # superlinear
        assert doubled.queries < 2.2 * base.queries  # but only by a log factor

    def test_monotone_in_epsilon(self):
        coarse = hamsim_cost(2, 1, 1, 1e-2, 4)
        fine = hamsim_cost(2, 1, 1, 1e-3, 4)
        finest = hamsim_cost(2, 1, 1, 1e-4, 4)
        assert coarse.queries < fine.queries < finest.queries
        assert coarse.gates < fine.gates < finest.gates

    def test_monotone_in_scale_parameters(self):
        base = hamsim_cost(2, 1, 1, 0.01, 4)
        assert hamsim_cost(3, 1, 1, 0.01, 4).queries > base.queries
        assert hamsim_cost(2, 1.5, 1, 0.01, 4).queries > base.queries
        assert hamsim_cost(2, 1, 2, 0.01, 4).queries > base.queries

    def test_tiny_tau_clamped(self):
        report = hamsim_cost(1, 1e-300, 1, 0.01, 1)
        assert report.queries >= 0.0
        assert math.isfinite(report.gates)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidArgumentError):
            hamsim_cost(-1, 1, 1, 0.01, 4)
        with pytest.raises(InvalidArgumentError):
            hamsim_cost(1, 1, 1, 2.0, 4)

    def test_json_roundtrip(self):
        report = hamsim_cost(2, 1, 1, 0.01, 4)
        data = json.loads(json.dumps(report.as_dict()))
        assert data["queries"] == pytest.approx(report.queries)
        assert data["inputs"]["s"] == 2


class TestSchrodingerisationCost:
    def test_composition_with_inflated_norm(self):
        # norm_ratio 1, eps = 0.01: the mode diagonal inflates the max-norm
        # by pi/0.02 ~ 157.08
        inflated = hamsim_cost(2, 1, math.pi / 0.02, 0.01, 4)
        report = schrodingerisation_cost(1.0, 2, 1, 1.0, 0.01, 4)
        assert report.queries == pytest.approx(inflated.queries, rel=1e-12)
        assert math.pi / 0.02 == pytest.approx(157.07963267948966, rel=1e-12)

    def test_norm_ratio_scales_linearly(self):
        one = schrodingerisation_cost(1.0, 2, 1, 1.0, 0.01, 4)
        two = schrodingerisation_cost(2.0, 2, 1, 1.0, 0.01, 4)
        assert two.queries == pytest.approx(2 * one.queries, rel=1e-12)
        assert two.gates == pytest.approx(2 * one.gates, rel=1e-12)

    def test_ratio_to_hamsim_scales_as_inverse_epsilon(self):
        # the lifted run pays an extra 1/eps factor; check the empirical
        # scaling exponent between consecutive epsilon decades
        ratios = {}
        for eps in (1e-2, 1e-3, 1e-4):
            ratios[eps] = (
                schrodingerisation_cost(1.0, 2, 1, 1.0, eps, 4).queries
                / hamsim_cost(2, 1, 1.0, eps, 4).queries
            )
        for eps_hi, eps_lo in [(1e-2, 1e-3), (1e-3, 1e-4)]:
            exponent = math.log(ratios[eps_lo] / ratios[eps_hi]) / math.log(10.0)
            assert exponent == pytest.approx(1.0, abs=0.05)

    def test_growth_warns(self):
        with pytest.warns(AccuracyWarning):
            schrodingerisation_cost(0.5, 2, 1, 1.0, 0.01, 4)

    def test_oscillatory_part_dominates_when_large(self):
        small = schrodingerisation_cost(1.0, 1, 1, 1e-3, 0.01, 4)
        big = schrodingerisation_cost(1.0, 1, 1, 1e-3, 0.01, 4, max_norm_oscillatory=10.0)
        assert big.queries > small.queries


class TestGroundStateCost:
    def test_leading_factor(self):
        # 1 / ((1/sqrt(2)) * 1 * 0.01) ~ 141.42
        s, max_norm, alpha0, gap, eps = 1.0, 1.0, 1 / math.sqrt(2), 1.0, 0.01
        leading = s * max_norm / (alpha0 * gap * eps)
        assert leading == pytest.approx(141.4213562373095, rel=1e-12)
        report = ground_state_cost(s, max_norm, alpha0, gap, eps)
        t_final = math.log(1.0 / (eps * alpha0**2)) / gap
        composed = schrodingerisation_cost(1 / alpha0, s, t_final, max_norm, eps, 1.0)
        assert report.queries == pytest.approx(composed.queries, rel=1e-12)

    def test_alpha_halved_doubles_cost(self):
        base = ground_state_cost(1, 1, 0.5, 1.0, 0.01)
        half = ground_state_cost(1, 1, 0.25, 1.0, 0.01)
        # amplification doubles; the relaxation time also grows by a log factor
        assert half.queries > 2 * base.queries
        assert half.queries < 2.6 * base.queries

    def test_gap_halved_doubles_cost_up_to_log(self):
        base = ground_state_cost(1, 1, 0.5, 1.0, 0.01)
        half_gap = ground_state_cost(1, 1, 0.5, 0.5, 0.01)
        assert half_gap.queries > 1.9 * base.queries
        assert half_gap.queries < 2.3 * base.queries

    def test_invalid_gap(self):
        with pytest.raises(InvalidArgumentError):
            ground_state_cost(1, 1, 0.5, 0.0, 0.01)


class TestGibbsCost:
    def test_infinite_temperature_ratio_one(self):
        report = gibbs_cost(1, 1, beta=1.0, dim=8, partition_z=8.0, epsilon=0.01)
        assert report.norm_ratio == pytest.approx(1.0)

    def test_two_level_partition_function(self):
        z = 1 + math.exp(-1.0)
        assert z == pytest.approx(1.3678794411714423, rel=1e-12)
        report = gibbs_cost(1, 1, beta=1.0, dim=2, partition_z=z, epsilon=0.01)
        assert report.norm_ratio == pytest.approx(1.209180365892537, rel=1e-12)

    def test_beta_doubles_tau(self):
        one = gibbs_cost(1, 1, beta=1.0, dim=2, partition_z=1.5, epsilon=0.01)
        two = gibbs_cost(1, 1, beta=2.0, dim=2, partition_z=1.5, epsilon=0.01)
        assert two.tau == pytest.approx(2 * one.tau, rel=1e-12)

    def test_nonpositive_partition_function(self):
        with pytest.raises(InvalidArgumentError):
            gibbs_cost(1, 1, 1.0, 2, 0.0, 0.01)


class TestTransportParity:
    def test_ratio_constant_under_matched_refinement(self):
        # spatial modes and auxiliary modes refine together (both ~ 1/eps),
        # velocity ordinates stay physical: both max-norms double per step
        # and their ratio is unchanged
        k = 8
        ratios, advs = [], []
        for j in (16, 32, 64):
            model = TransportModel.create(
                [make_grid(1.0, j)], [make_grid(1.0, k)], np.full((k, k), 1.0 / k)
            )
            d = assemble_eta_diagonal(make_grid(8.0, j))
            parity = transport_norm_parity(model, d)
            ratios.append(parity["ratio"])
            advs.append(parity["advection_max_norm"])
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
        assert ratios[1] == pytest.approx(ratios[2], rel=1e-12)
        assert advs[1] == pytest.approx(2 * advs[0], rel=1e-12)
        assert 0.01 < ratios[0] < 100.0
