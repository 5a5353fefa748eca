"""Ensemble fitting, averaging identities, truncation, and serialization."""

import math
import threading

import numpy as np
import pytest

from eppr import ensemble
from eppr.data_io import ColumnScaling
from eppr.ensemble import (
    EnsembleModel,
    FitConfig,
    default_config,
    fit,
    from_json_text,
    load_model,
    save_model,
    to_json_text,
)
from eppr.errors import ConfigError, NumericError
from eppr.greedy import PprModel


def small_config(**kw) -> FitConfig:
    base = dict(variant="aga", q=2, ell=1, B=4, k_max=2, J=6, degree=3,
                nu=0.2, stopping="fixed_k", seed=7)
    base.update(kw)
    return FitConfig(**base)


def training_data(n: int = 80, p: int = 3, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 3.0, (n, p))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    return X, y


def constant_member(value: float) -> PprModel:
    return PprModel(
        intercept=value, ridges=[], weights=np.zeros(0),
        k=0, bic_trace=[], sse_trace=[float("nan")] * 0,
    )


def identity_scaling(p: int) -> ColumnScaling:
    return ColumnScaling(lo=np.full(p, -1.0), hi=np.full(p, 1.0))


def hand_model(values, truncation=None, p: int = 1) -> EnsembleModel:
    return EnsembleModel(
        config=small_config(B=len(values)),
        members=[constant_member(v) for v in values],
        feature_scaling=identity_scaling(p),
        truncation=truncation,
    )


class TestDefaultConfig:
    def test_housing_shape(self) -> None:
        cfg = default_config(506, 13)
        assert (cfg.q, cfg.ell, cfg.J) == (8, 1, 7)
        assert cfg.B == 50 and cfg.k_max == 20

    def test_wide_shape(self) -> None:
        cfg = default_config(1000, 100)
        assert (cfg.q, cfg.ell, cfg.J) == (15, 6, 7)

    def test_single_feature(self) -> None:
        cfg = default_config(1000, 1)
        assert (cfg.q, cfg.ell) == (1, 1)

    def test_j_clamped_to_bounds(self) -> None:
        assert default_config(10, 2).J == 6
        assert default_config(10 ** 9, 2).J == 30

    @pytest.mark.parametrize("n, p", [(0, 3), (3, 0), (-1, -1)])
    def test_needs_a_row_and_a_predictor(self, n, p) -> None:
        with pytest.raises(ConfigError, match=(
            f"^need n >= 1 and p >= 1, got n={n}, p={p}$"
        )):
            default_config(n, p)

    def test_validate_rejects_bad_values(self) -> None:
        with pytest.raises(ConfigError):
            small_config(variant="sga").validate()
        with pytest.raises(ConfigError):
            small_config(B=0).validate()
        with pytest.raises(ConfigError):
            small_config(q=5).validate(p=3)
        with pytest.raises(ConfigError):
            small_config(degree=0).validate()
        with pytest.raises(ConfigError):
            small_config(stopping="cv").validate()
        # The spline and greedy layers rely on these without checking them.
        for bad in (dict(ell=0), dict(k_max=0), dict(J=3, degree=3)):
            with pytest.raises(ConfigError):
                small_config(**bad).validate()
        for nu in (math.nan, math.inf, -math.inf, -0.1):
            with pytest.raises(ConfigError):
                small_config(nu=nu).validate()

    def test_validate_bounds_the_spline(self) -> None:
        top_J, top_degree = ensemble._MAX_J, ensemble._MAX_DEGREE
        small_config(J=top_J).validate()
        small_config(J=top_degree + 1, degree=top_degree).validate()
        for bad in (dict(J=top_J + 1), dict(J=100_000),
                    dict(J=top_degree + 2, degree=top_degree + 1),
                    dict(J=1101, degree=1100)):
            with pytest.raises(ConfigError):
                small_config(**bad).validate()


class TestPredictAlgebra:
    def test_single_member_equals_that_member(self) -> None:
        X, y = training_data()
        cfg = small_config(B=1)
        model = fit(X, y, cfg)
        Xs = model.feature_scaling.transform(X)
        np.testing.assert_array_equal(
            model.predict(X), model.members[0].predict(Xs)
        )

    def test_mean_of_member_outputs(self) -> None:
        X, y = training_data()
        model = fit(X, y, small_config())
        Xs = model.feature_scaling.transform(X)
        stacked = np.stack([m.predict(Xs) for m in model.members])
        np.testing.assert_allclose(
            model.predict(X), stacked.mean(axis=0), atol=1e-12
        )

    def test_member_permutation_is_bit_identical(self) -> None:
        X, y = training_data(seed=3)
        model = fit(X, y, small_config(B=6))
        base = model.predict(X)
        rng = np.random.default_rng(1)
        for _ in range(3):
            order = rng.permutation(len(model.members))
            shuffled = EnsembleModel(
                config=model.config,
                members=[model.members[i] for i in order],
                feature_scaling=model.feature_scaling,
                truncation=model.truncation,
            )
            assert shuffled.predict(X).tobytes() == base.tobytes()

    @pytest.mark.parametrize("k_max", [1, 3])
    def test_layout_of_x_does_not_change_the_bytes(self, k_max: int) -> None:
        # More rows than one chunk of the batched ridge evaluation, so the
        # last chunk is partial.  One ridge per member makes the projection
        # a matrix-vector product, whose bits follow the layout of X.
        X, y = training_data(seed=5)
        model = fit(X, y, small_config(B=3, k_max=k_max))
        Xq = np.random.default_rng(6).uniform(-3.0, 4.0, (10_000, 3))
        base = model.predict(np.ascontiguousarray(Xq)).tobytes()
        wide = np.hstack([Xq, Xq])
        for layout in (np.asfortranarray(Xq), np.repeat(Xq, 2, axis=0)[::2],
                       wide[:, :3], np.asfortranarray(wide)[:, 3:]):
            assert model.predict(layout).tobytes() == base

    def test_jensen_training_sse(self) -> None:
        # The averaged fit is never worse on squared error than the
        # average of the member squared errors.
        X, y = training_data(n=120, seed=4)
        model = fit(X, y, small_config(B=8))
        Xs = model.feature_scaling.transform(X)
        ens_sse = float(np.sum((y - model.predict(X)) ** 2))
        member_sse = np.mean(
            [np.sum((y - m.predict(Xs)) ** 2) for m in model.members]
        )
        assert ens_sse <= member_sse * (1.0 + 1e-12)

    def test_predict_validates_input(self) -> None:
        X, y = training_data()
        model = fit(X, y, small_config(B=1))
        with pytest.raises(ConfigError):
            model.predict(X[:, :2])
        with pytest.raises(ConfigError):
            model.predict(X.ravel())
        bad = X.copy()
        bad[0, 0] = np.nan
        with pytest.raises(NumericError):
            model.predict(bad)

    def test_fit_validates_input(self) -> None:
        X, y = training_data()
        with pytest.raises(ConfigError):
            fit(X, y[:-1], small_config())
        with pytest.raises(NumericError):
            fit(X, np.where(np.arange(len(y)) == 0, np.inf, y),
                small_config())

    def test_too_few_samples_rejected(self, monkeypatch) -> None:
        cfg = small_config(q=2, J=7, B=1, k_max=1)
        X, y = training_data(n=10, p=2)
        assert fit(X, y, cfg).members  # n = J + q + 1 rows fit
        # n = J + q is refused before a knot vector is built.
        monkeypatch.setattr(ensemble, "make_uniform_knots", None)
        with pytest.raises(ConfigError, match="samples"):
            fit(X[:9], y[:9], cfg)


class TestTruncation:
    def test_constant_member_clamped_exactly(self) -> None:
        t = 5.0
        model = hand_model([t + 10.0], truncation=t)
        X = np.zeros((4, 1))
        np.testing.assert_array_equal(model.predict(X), np.full(4, t))

    def test_two_members_clamp_then_average(self) -> None:
        t = 3.0
        model = hand_model([t + 10.0, 0.0], truncation=t)
        X = np.zeros((2, 1))
        np.testing.assert_array_equal(model.predict(X), np.full(2, t / 2))

    def test_negative_side(self) -> None:
        t = 2.0
        model = hand_model([-t - 50.0], truncation=t)
        np.testing.assert_array_equal(
            model.predict(np.zeros((1, 1))), np.array([-t])
        )

    def test_fit_records_ln_n_level(self) -> None:
        X, y = training_data(n=90)
        model = fit(X, y, small_config(truncation_mode="ln_n"))
        assert model.truncation == max(math.log(90), float(np.max(np.abs(y))))

    def test_off_mode_stores_none(self) -> None:
        X, y = training_data()
        model = fit(X, y, small_config())
        assert model.truncation is None


class TestDeterminism:
    def test_refit_is_byte_identical(self) -> None:
        X, y = training_data(seed=5)
        cfg = small_config()
        a = fit(X, y, cfg)
        b = fit(X, y, small_config())
        assert to_json_text(a) == to_json_text(b)
        assert a.predict(X).tobytes() == b.predict(X).tobytes()

    def test_workers_do_not_change_the_model(self) -> None:
        X, y = training_data(seed=6)
        serial = fit(X, y, small_config(B=6), workers=1)
        threaded = fit(X, y, small_config(B=6), workers=3)
        assert to_json_text(serial) == to_json_text(threaded)
        assert (
            serial.predict(X).tobytes() == threaded.predict(X).tobytes()
        )

    def test_members_fit_on_the_calling_thread(self, monkeypatch) -> None:
        # A member fit is Python-bound under the interpreter lock; a pool
        # measured slower than this serial loop.
        threads: list[int] = []
        real = ensemble.run_greedy

        def recording_run_greedy(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(ensemble, "run_greedy", recording_run_greedy)
        X, y = training_data(seed=6)
        fit(X, y, small_config(B=6), workers=3)
        assert threads == [threading.get_ident()] * 6

    def test_seed_changes_the_model(self) -> None:
        X, y = training_data(seed=8)
        a = fit(X, y, small_config(seed=1))
        b = fit(X, y, small_config(seed=2))
        assert to_json_text(a) != to_json_text(b)


class TestSerialization:
    def test_round_trip_text_is_byte_identical(self) -> None:
        X, y = training_data(seed=9)
        model = fit(X, y, small_config(variant="oga",
                                       truncation_mode="ln_n"))
        text = to_json_text(model)
        again = to_json_text(from_json_text(text))
        assert text == again

    def test_round_trip_predictions_identical(self) -> None:
        X, y = training_data(seed=10)
        for variant in ("aga", "oga", "rga"):
            model = fit(X, y, small_config(variant=variant))
            restored = from_json_text(to_json_text(model))
            Xq = np.random.default_rng(11).uniform(-2.0, 3.0, (40, 3))
            assert (
                model.predict(Xq).tobytes()
                == restored.predict(Xq).tobytes()
            )

    def test_text_ends_with_newline_and_sorted_keys(self) -> None:
        X, y = training_data()
        text = to_json_text(fit(X, y, small_config(B=1)))
        assert text.endswith("\n")
        import json

        payload = json.loads(text)
        assert payload["format"] == "eppr-model-v1"
        assert list(payload) == sorted(payload)

    def test_save_and_load(self, tmp_path) -> None:
        X, y = training_data(seed=12)
        model = fit(X, y, small_config(), column_names=["a", "b", "c", "y"])
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert to_json_text(loaded) == to_json_text(model)
        assert loaded.column_names == ["a", "b", "c", "y"]

    def test_fit_refuses_names_a_load_would_refuse(self) -> None:
        X, y = training_data(seed=12)
        with pytest.raises(ConfigError, match="column_names"):
            fit(X, y, small_config(), column_names=["a", "b", "c"])
        with pytest.raises(ConfigError, match="distinct"):
            fit(X, y, small_config(), column_names=["a", "b", "a", "y"])

    def test_rejects_unknown_format(self) -> None:
        with pytest.raises(ConfigError):
            from_json_text('{"format": "other", "members": []}')
