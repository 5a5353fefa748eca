"""Greedy steps and BIC stopping."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from eppr import ensemble, greedy, spline
from eppr.ensemble import FitConfig
from eppr.errors import ConfigError, NumericError
from eppr.greedy import (
    RunData,
    bic_value,
    relaxation_weight,
    run_greedy,
    select_candidate_subsets,
)
from eppr.singleindex import eval_ridge_batch
from eppr.spline import make_uniform_knots


def make_config(**kw) -> FitConfig:
    base = dict(variant="aga", q=2, ell=2, B=1, k_max=4, J=7, degree=3,
                nu=0.2, stopping="fixed_k", seed=0)
    base.update(kw)
    return FitConfig(**base)


def make_data(n: int, p: int, y, seed: int = 0, J: int = 7) -> RunData:
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, p))
    return RunData(X=X, y=y(X, rng), kv=make_uniform_knots(J, 3))


class TestSelectCandidateSubsets:
    def test_sorted_and_in_range(self) -> None:
        rng = np.random.default_rng(0)
        for subset in select_candidate_subsets(10, 4, 20, rng):
            assert subset.shape == (4,)
            assert np.all(np.diff(subset) > 0)
            assert subset.min() >= 0 and subset.max() < 10

    def test_full_subset_when_q_equals_p(self) -> None:
        rng = np.random.default_rng(1)
        for subset in select_candidate_subsets(5, 5, 10, rng):
            np.testing.assert_array_equal(subset, np.arange(5))

    def test_uniform_over_singletons(self) -> None:
        rng = np.random.default_rng(2)
        draws = select_candidate_subsets(2, 1, 1000, rng)
        freq = np.mean([s[0] == 0 for s in draws])
        assert abs(freq - 0.5) < 0.05

    def test_deterministic_given_stream(self) -> None:
        a = select_candidate_subsets(8, 3, 5, np.random.default_rng(3))
        b = select_candidate_subsets(8, 3, 5, np.random.default_rng(3))
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s, t)


class TestBicValue:
    def test_zero_terms_is_mean_sse(self) -> None:
        assert bic_value(0, 50.0, 100, 4, 8, 0.2) == pytest.approx(0.5)

    def test_frozen_example(self) -> None:
        expected = math.log(100) * (4 + 8.0 ** 1.2) / 100
        assert bic_value(1, 0.0, 100, 4, 8, 0.2) == pytest.approx(
            expected, rel=1e-12
        )

    def test_penalty_strictly_increasing_in_tau(self) -> None:
        values = [bic_value(t, 10.0, 200, 3, 7, 0.2) for t in range(5)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @staticmethod
    def largest_accepted_nu(n: int, q: int, J: int, k_max: int) -> float:
        """The largest nu whose penalty at k_max terms is finite, as
        ``ensemble.fit`` requires."""

        def accepted(nu: float) -> bool:
            try:
                return math.isfinite(bic_value(k_max, 0.0, n, q, J, nu))
            except OverflowError:
                return False

        lo, hi = 0.2, 1000.0
        assert accepted(lo) and not accepted(hi)
        while True:
            mid = (lo + hi) / 2.0
            if mid in (lo, hi):
                return lo
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)

    def test_largest_accepted_nu_matches_fit(self) -> None:
        nu = self.largest_accepted_nu(1000, 2, 7, 20)
        assert nu > 300.0
        rng = np.random.default_rng(0)
        X = rng.uniform(-1.0, 1.0, (1000, 3))
        y = X[:, 0] + 0.1 * rng.standard_normal(1000)
        cfg = make_config(q=2, ell=1, k_max=20, stopping="bic", nu=nu)
        # Its penalty dwarfs any SSE, so the bound stops before step 2.
        (member,) = ensemble.fit(X, y, cfg).members
        assert member.k == 1 and len(member.bic_trace) == 1
        with pytest.raises(ConfigError, match="overflow"):
            ensemble.fit(X, y, replace(cfg, nu=math.nextafter(nu, math.inf)))

    def test_sse_never_lowers_the_penalty_alone(self) -> None:
        # bic_value(tau, 0.0, ...) bounds BIC(tau) from below in floats,
        # which is what lets run_greedy skip a step no SSE could keep.
        sses = [0.0, 5e-324, 1e-300, 1.0, 1e300, sys.float_info.max]
        for n in (4, 1000, 10**6):
            for nu in (0.0, 0.2, self.largest_accepted_nu(n, 2, 7, 20)):
                for tau in (1, 2, 20):
                    floor = bic_value(tau, 0.0, n, 2, 7, nu)
                    assert math.isfinite(floor)
                    for sse in sses:
                        assert bic_value(tau, sse, n, 2, 7, nu) >= floor


class TestRelaxationWeight:
    def test_first_three(self) -> None:
        np.testing.assert_allclose(
            [relaxation_weight(k) for k in (1, 2, 3)],
            [1.0 / 3.0, 0.5, 0.6],
        )


class TestAgaRuns:
    def test_single_ridge_noiseless_recovered(self) -> None:
        data = make_data(
            300, 3, lambda X, r: np.sin(2.0 * X @ np.array([0.6, -0.64, 0.48])),
            seed=5, J=14,
        )
        cfg = make_config(variant="aga", q=3, ell=1, k_max=1, J=14)
        model = run_greedy(data, cfg, np.random.default_rng(0))
        resid = data.y - model.predict(data.X)
        assert float(resid @ resid) < 1e-6 * float(data.y @ data.y)

    def test_damped_objective_monotone(self) -> None:
        data = make_data(
            200, 6,
            lambda X, r: np.sin(2 * X[:, 0]) + X[:, 3] ** 2
            + 0.2 * r.standard_normal(X.shape[0]),
            seed=6,
        )
        cfg = make_config(variant="aga", q=3, ell=2, k_max=5)
        model = run_greedy(data, cfg, np.random.default_rng(1))
        obj = model.objective_trace
        assert len(obj) == 5
        for a, b in zip(obj, obj[1:]):
            assert b <= a * (1.0 + 1e-9) + 1e-12

    def test_two_additive_signals_found_in_two_steps(self) -> None:
        # p = 2, singleton subsets, enough candidates per step that both
        # features are drawn: the two additive components are recovered
        # by step two.
        rng = np.random.default_rng(7)
        X = rng.uniform(-1.0, 1.0, (300, 2))
        y = np.sin(2.5 * X[:, 0]) + np.cos(3.0 * X[:, 1])
        data = RunData(X=X, y=y, kv=make_uniform_knots(8, 3))
        cfg = make_config(variant="aga", q=1, ell=8, k_max=2, J=8)
        model = run_greedy(data, cfg, np.random.default_rng(2))
        used = {int(r.subset[0]) for r in model.ridges}
        assert used == {0, 1}
        resid = y - model.predict(X)
        assert float(resid @ resid) < 1e-4 * float(y @ y)

    def test_weights_are_ones(self) -> None:
        data = make_data(150, 3, lambda X, r: X[:, 0] ** 2, seed=8)
        cfg = make_config(variant="aga", q=2, ell=1, k_max=3)
        model = run_greedy(data, cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(model.weights, np.ones(3))


class TestOgaRuns:
    def test_residual_norm_monotone(self) -> None:
        data = make_data(
            200, 5,
            lambda X, r: np.tanh(2 * X[:, 1]) + 0.5 * X[:, 4]
            + 0.2 * r.standard_normal(X.shape[0]),
            seed=9,
        )
        cfg = make_config(variant="oga", q=2, ell=2, k_max=6)
        model = run_greedy(data, cfg, np.random.default_rng(4))
        sse = model.sse_trace
        for a, b in zip(sse, sse[1:]):
            assert b <= a * (1.0 + 1e-9) + 1e-12

    def test_terms_have_unit_empirical_norm(self) -> None:
        data = make_data(
            250, 4,
            lambda X, r: np.sin(3 * X[:, 0]) + 0.1 * r.standard_normal(250),
            seed=10,
        )
        cfg = make_config(variant="oga", q=2, ell=1, k_max=3)
        model = run_greedy(data, cfg, np.random.default_rng(5))
        for ridge in model.ridges:
            values = eval_ridge_batch(ridge, data.X)
            norm = math.sqrt(float(values @ values) / data.X.shape[0])
            assert norm == pytest.approx(1.0, rel=1e-10) or norm < 1e-12

    def test_orthogonal_column_leaves_coefficients(self) -> None:
        # Refit on the fixed columns: when the appended column is
        # orthogonal to the span, earlier multipliers are unchanged.
        from eppr.numerics import solve_ridge_ls

        rng = np.random.default_rng(11)
        h1 = rng.standard_normal(60)
        h2 = rng.standard_normal(60)
        h2 -= (h1 @ h2) / (h1 @ h1) * h1
        target = 2.0 * h1 + 0.5 * h2
        first = solve_ridge_ls(h1[:, None], target, damping=0.0)
        both = solve_ridge_ls(np.column_stack([h1, h2]), target, damping=0.0)
        assert both.coefficients[0] == pytest.approx(
            first.coefficients[0], rel=1e-10
        )

    def test_k1_matches_aga_up_to_factorization(self) -> None:
        data = make_data(
            220, 3,
            lambda X, r: np.sin(2 * X @ np.array([0.8, 0.0, -0.6]))
            + 0.05 * r.standard_normal(220),
            seed=12,
        )
        cfg_a = make_config(variant="aga", q=3, ell=1, k_max=1)
        cfg_o = make_config(variant="oga", q=3, ell=1, k_max=1)
        model_a = run_greedy(data, cfg_a, np.random.default_rng(6))
        model_o = run_greedy(data, cfg_o, np.random.default_rng(6))
        np.testing.assert_allclose(
            model_a.predict(data.X), model_o.predict(data.X), atol=1e-8
        )


class TestRgaRuns:
    def test_alpha_weights_cumulative_products(self) -> None:
        data = make_data(
            200, 4,
            lambda X, r: np.sin(2 * X[:, 0]) + 0.1 * r.standard_normal(200),
            seed=13,
        )
        cfg = make_config(variant="rga", q=2, ell=1, k_max=4)
        model = run_greedy(data, cfg, np.random.default_rng(7))
        k = 4
        expected = [
            np.prod([relaxation_weight(j) for j in range(tau + 1, k + 1)])
            for tau in range(1, k + 1)
        ]
        np.testing.assert_allclose(model.weights, expected, rtol=1e-12)

    def test_stored_weights_match_recursive_evaluation(self) -> None:
        # Independent oracle: unroll m_k = alpha_k m_{k-1} + g_k on raw
        # per-term evaluations.
        data = make_data(
            200, 4,
            lambda X, r: np.cos(2 * X[:, 1]) + X[:, 2]
            + 0.1 * r.standard_normal(200),
            seed=14,
        )
        cfg = make_config(variant="rga", q=2, ell=2, k_max=4)
        model = run_greedy(data, cfg, np.random.default_rng(8))
        Xq = np.random.default_rng(15).uniform(-1.0, 1.0, (50, 4))
        recursive = np.zeros(50)
        for k, ridge in enumerate(model.ridges, start=1):
            recursive = (
                relaxation_weight(k) * recursive + eval_ridge_batch(ridge, Xq)
            )
        stored = model.predict(Xq) - model.intercept
        np.testing.assert_allclose(stored, recursive, atol=1e-10)

    def test_single_step_weight_is_one(self) -> None:
        data = make_data(150, 2, lambda X, r: X[:, 0], seed=16)
        cfg = make_config(variant="rga", q=1, ell=1, k_max=1)
        model = run_greedy(data, cfg, np.random.default_rng(9))
        np.testing.assert_allclose(model.weights, [1.0])


class TestRunGreedy:
    def test_fixed_k_takes_exactly_k_steps(self) -> None:
        data = make_data(160, 3, lambda X, r: X[:, 0] ** 3, seed=17)
        cfg = make_config(q=2, ell=1, k_max=3, stopping="fixed_k")
        model = run_greedy(data, cfg, np.random.default_rng(10))
        assert model.k == 3 and len(model.ridges) == 3
        assert len(model.bic_trace) == 3

    def test_bic_trace_indices_and_recompute(self) -> None:
        data = make_data(
            200, 5,
            lambda X, r: np.sin(2 * X[:, 0]) + 0.3 * r.standard_normal(200),
            seed=18,
        )
        cfg = make_config(q=3, ell=1, k_max=4, stopping="fixed_k")
        model = run_greedy(data, cfg, np.random.default_rng(11))
        taus = [t for t, _ in model.bic_trace]
        assert taus == [1, 2, 3, 4]
        n = data.X.shape[0]
        for (tau, bic), sse in zip(model.bic_trace, model.sse_trace):
            assert bic == bic_value(tau, sse, n, cfg.q, cfg.J, cfg.nu)

    def test_bic_stops_on_noise(self) -> None:
        hits = 0
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            X = rng.uniform(-1.0, 1.0, (300, 10))
            y = rng.standard_normal(300)
            data = RunData(X=X, y=y, kv=make_uniform_knots(7, 3))
            cfg = make_config(q=6, ell=1, k_max=5, stopping="bic")
            model = run_greedy(data, cfg, np.random.default_rng(seed))
            hits += model.k == 1
            assert len(model.bic_trace) in (model.k, model.k + 1)
        assert hits >= 4

    def test_bic_keeps_signal_term(self) -> None:
        rng = np.random.default_rng(19)
        X = rng.uniform(-1.0, 1.0, (300, 6))
        theta = rng.standard_normal(6)
        theta /= np.linalg.norm(theta)
        y = np.sin(2.0 * X @ theta) + 0.1 * rng.standard_normal(300)
        data = RunData(X=X, y=y, kv=make_uniform_knots(7, 3))
        cfg = make_config(q=6, ell=1, k_max=5, stopping="bic")
        model = run_greedy(data, cfg, np.random.default_rng(12))
        assert model.k in (1, 2)
        # Discarding the last term must leave a good fit behind.
        resid = y - model.predict(X)
        rpe = float(resid @ resid) / float((y - y.mean()) @ (y - y.mean()))
        assert rpe < 0.1

    def test_at_least_one_term_kept(self) -> None:
        rng = np.random.default_rng(20)
        X = rng.uniform(-1.0, 1.0, (120, 2))
        y = rng.standard_normal(120)
        data = RunData(X=X, y=y, kv=make_uniform_knots(6, 3))
        cfg = make_config(q=1, ell=1, k_max=1, stopping="bic")
        model = run_greedy(data, cfg, np.random.default_rng(13))
        assert model.k == 1 and len(model.ridges) == 1

    def test_prediction_decomposes(self) -> None:
        for variant in ("aga", "oga", "rga"):
            data = make_data(
                200, 4,
                lambda X, r: np.sin(2 * X[:, 0]) + X[:, 3]
                + 0.1 * r.standard_normal(200),
                seed=21,
            )
            cfg = make_config(variant=variant, q=2, ell=2, k_max=3)
            model = run_greedy(data, cfg, np.random.default_rng(14))
            Xq = np.random.default_rng(22).uniform(-1.0, 1.0, (100, 4))
            total = np.full(100, model.intercept)
            for w, ridge in zip(model.weights, model.ridges):
                total += w * eval_ridge_batch(ridge, Xq)
            np.testing.assert_allclose(
                model.predict(Xq), total, atol=1e-10
            )


def assert_same_model(a, b) -> None:
    """Bit-for-bit equality of two greedy runs' kept terms."""
    assert a.k == b.k
    assert np.float64(a.intercept).tobytes() == np.float64(b.intercept).tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()
    assert len(a.ridges) == len(b.ridges)
    for r, s in zip(a.ridges, b.ridges):
        assert r.subset.tobytes() == s.subset.tobytes()
        assert r.theta.tobytes() == s.theta.tobytes()
        assert (r.scaler.lo, r.scaler.hi) == (s.scaler.lo, s.scaler.hi)
        assert r.coeffs.tobytes() == s.coeffs.tobytes()


class TestPenaltyBoundStop:
    """``bic`` skips a step whose penalty alone is above BIC(tau - 1).

    A ``fixed_k`` run with the same stream takes the same steps up to its
    ``k_max``, so it is the oracle for both the kept model and the stop.
    """

    @staticmethod
    def datasets():
        # Low noise leaves a residual SSE under one term's penalty, so the
        # bound decides; noise 0.8 on n = 200 keeps the SSE above it.
        for seed, noise in ((30, 0.05), (31, 0.1), (32, 0.02), (33, 0.8)):
            yield make_data(
                200, 4,
                lambda X, r: np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 2] ** 2
                + noise * r.standard_normal(200),
                seed=seed,
            )

    @pytest.mark.parametrize("variant", ["aga", "oga", "rga"])
    def test_bic_model_is_the_fixed_k_model(self, variant: str) -> None:
        fired = stepped = 0
        for i, data in enumerate(self.datasets()):
            cfg = make_config(variant=variant, q=2, ell=2, k_max=5,
                              stopping="bic")
            model = run_greedy(data, cfg, np.random.default_rng(40 + i))
            k = model.k
            oracle = run_greedy(data, replace(cfg, stopping="fixed_k", k_max=k),
                                np.random.default_rng(40 + i))
            assert_same_model(model, oracle)
            fitted = len(model.bic_trace)
            assert fitted in (k, k + 1) and fitted <= cfg.k_max
            if k == cfg.k_max:
                assert model.bic_trace == oracle.bic_trace
                continue
            longer = run_greedy(
                data, replace(cfg, stopping="fixed_k", k_max=k + 1),
                np.random.default_rng(40 + i),
            )
            # The post-step rule alone, on the longer trace, stops at k too.
            bics = [b for _, b in longer.bic_trace]
            stops = [t for t in range(1, k + 1) if bics[t - 1] < bics[t]]
            assert stops == [k]
            assert model.bic_trace == longer.bic_trace[:fitted]
            assert model.sse_trace == longer.sse_trace[:fitted]
            if variant == "aga":
                assert model.objective_trace == longer.objective_trace[:fitted]
            if fitted == k:
                fired += 1
                n = data.X.shape[0]
                assert bics[k - 1] < bic_value(k + 1, 0.0, n, cfg.q, cfg.J,
                                               cfg.nu)
                assert model.bic_trace == oracle.bic_trace
                assert model.sse_trace == oracle.sse_trace
            else:
                stepped += 1
        if variant in ("aga", "oga"):
            assert fired >= 1
        assert stepped >= 1

    @pytest.mark.parametrize("stopping", ["bic", "fixed_k"])
    @pytest.mark.parametrize("variant", ["aga", "oga", "rga"])
    def test_traces_hold_one_entry_per_step_fitted(
        self, monkeypatch, variant: str, stopping: str
    ) -> None:
        steps = []
        step = greedy._STEP_FUNCTIONS[variant]

        def counted(*args) -> None:
            steps.append(len(args[0].ridges))
            step(*args)

        monkeypatch.setitem(greedy._STEP_FUNCTIONS, variant, counted)
        for i, data in enumerate(self.datasets()):
            steps.clear()
            cfg = make_config(variant=variant, q=2, ell=2, k_max=5,
                              stopping=stopping)
            model = run_greedy(data, cfg, np.random.default_rng(40 + i))
            assert steps == list(range(len(steps)))
            assert len(model.bic_trace) == len(model.sse_trace) == len(steps)
            if variant == "aga":
                assert len(model.objective_trace) == len(steps)
            if stopping == "fixed_k":
                assert len(steps) == cfg.k_max

    @pytest.mark.parametrize("variant", ["aga", "oga", "rga"])
    def test_fixed_k_fits_every_step(self, variant: str) -> None:
        data = make_data(200, 2, lambda X, r: np.sin(2.0 * X[:, 0]), seed=34)
        cfg = make_config(variant=variant, q=2, ell=1, k_max=4)
        model = run_greedy(data, cfg, np.random.default_rng(0))
        assert len(model.bic_trace) == model.k == cfg.k_max
        assert len(model.sse_trace) == cfg.k_max
        # The bound would have stopped a bic run before step 2.
        assert model.bic_trace[0][1] < bic_value(
            2, 0.0, data.X.shape[0], cfg.q, cfg.J, cfg.nu
        )


class TestCandidateFallbacks:
    """A patched single-index fit takes each fallback of the candidate search."""

    @staticmethod
    def data() -> RunData:
        return make_data(
            150, 4,
            lambda X, r: np.sin(2 * X[:, 0]) + 0.1 * r.standard_normal(150),
            seed=23,
        )

    @pytest.mark.parametrize("variant", ["aga", "oga", "rga"])
    def test_every_candidate_failing_appends_zero_ridges(
        self, monkeypatch, variant
    ) -> None:
        calls = []

        def fail(*args, **kwargs):
            calls.append(args)
            raise NumericError("forced")

        monkeypatch.setattr(greedy, "fit_single_index", fail)
        data = self.data()
        cfg = make_config(variant=variant, q=2, ell=2, k_max=3)
        model = run_greedy(data, cfg, np.random.default_rng(16))
        assert len(calls) == 6
        assert model.k == 3
        for ridge in model.ridges:
            assert np.all(ridge.coeffs == 0.0)
            np.testing.assert_array_equal(ridge.subset, [0, 1])
        assert np.array_equal(
            model.predict(data.X), np.full(150, model.intercept)
        )
        centred = data.y - model.intercept
        assert model.sse_trace == [float(centred @ centred)] * 3

    @pytest.mark.parametrize("variant", ["aga", "oga", "rga"])
    def test_zero_term_between_fitted_terms(
        self, monkeypatch, variant
    ) -> None:
        # Both candidates of step 2 fail; steps 1 and 3 fit as usual.
        real = greedy.fit_single_index
        calls = []

        def step_two_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) in (3, 4):
                raise NumericError("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(greedy, "fit_single_index", step_two_fails)
        data = self.data()
        cfg = make_config(variant=variant, q=2, ell=2, k_max=3)
        model = run_greedy(data, cfg, np.random.default_rng(18))
        assert len(calls) == 6
        assert model.k == len(model.ridges) == 3
        assert len(model.sse_trace) == len(model.bic_trace) == 3
        first, zero, third = model.ridges
        np.testing.assert_array_equal(zero.subset, [0, 1])
        # Every rule keeps the term at exactly 0, aga through the joint
        # refit of step 3 as well.
        assert np.all(zero.coeffs == 0.0)
        assert np.any(first.coeffs != 0.0) and np.any(third.coeffs != 0.0)
        if variant == "oga":
            assert model.weights[1] == 0.0
        # The term adds exactly 0: the model predicts as it would without.
        without = replace(model, ridges=[first, third],
                          weights=model.weights[[0, 2]], k=2)
        assert np.array_equal(model.predict(data.X), without.predict(data.X))

    @pytest.mark.parametrize("variant", ["aga", "oga", "rga"])
    def test_tie_goes_to_the_earliest_candidate(
        self, monkeypatch, variant
    ) -> None:
        real = greedy.fit_single_index
        returned = []

        def equal_sse(*args, **kwargs):
            ridge, _ = real(*args, **kwargs)
            returned.append(ridge)
            return ridge, 1.0

        monkeypatch.setattr(greedy, "fit_single_index", equal_sse)
        cfg = make_config(variant=variant, q=2, ell=3, k_max=2)
        model = run_greedy(self.data(), cfg, np.random.default_rng(19))
        assert len(returned) == 6
        for ridge, first in zip(model.ridges, returned[::3]):
            np.testing.assert_array_equal(ridge.subset, first.subset)
            np.testing.assert_array_equal(ridge.theta, first.theta)

    @pytest.mark.parametrize("variant", ["aga", "oga", "rga"])
    def test_non_finite_sse_skips_the_candidate(
        self, monkeypatch, variant
    ) -> None:
        # NaN compares false both ways, so only the finiteness check keeps
        # a first NaN candidate from beating the second.
        real = greedy.fit_single_index
        returned = []

        def first_nan(*args, **kwargs):
            ridge, sse = real(*args, **kwargs)
            returned.append(ridge)
            return ridge, float("nan") if len(returned) % 2 else sse

        monkeypatch.setattr(greedy, "fit_single_index", first_nan)
        cfg = make_config(variant=variant, q=2, ell=2, k_max=2)
        model = run_greedy(self.data(), cfg, np.random.default_rng(17))
        assert len(returned) == 4
        for ridge, second in zip(model.ridges, returned[1::2]):
            np.testing.assert_array_equal(ridge.subset, second.subset)
            np.testing.assert_array_equal(ridge.theta, second.theta)


class TestFitStaysOnDesignPath:
    """No fit evaluates a spline from its coefficients.

    ``basis_matrix(kv, v, coeffs)`` rounds differently from the design
    product the fit uses, so a fit that reached it would change model
    bytes.  Every ``eppr`` binding of ``basis_matrix`` is replaced by a
    guard that refuses ``coeffs``, the way perfbench's tracer wraps them.
    """

    @pytest.mark.parametrize("variant", ["aga", "oga", "rga"])
    def test_fit_never_passes_coefficients(
        self, monkeypatch, variant: str
    ) -> None:
        original = spline.basis_matrix
        dense_calls = []

        def guarded(kv, v, coeffs=None):
            if coeffs is not None:
                raise AssertionError("spline evaluated from coefficients")
            dense_calls.append(v.size)
            return original(kv, v)

        for name, module in list(sys.modules.items()):
            if name == "eppr" or name.startswith("eppr."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, guarded)
        rng = np.random.default_rng(5)
        X = rng.uniform(-1.0, 1.0, (150, 4))
        y = np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2
        config = make_config(variant=variant, q=3, ell=3, B=2, k_max=3)
        model = ensemble.fit(X, y, config)
        assert dense_calls and len(model.members) == 2
        # The guard is live where prediction evaluates ridges.
        with pytest.raises(AssertionError, match="from coefficients"):
            model.predict(X)
