import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

import util
from carma_hawkes import model
from carma_hawkes import (
    BivariateSpec,
    NegativeIntensity,
    ProcessState,
    UnivariateSpec,
    apply_event,
    channel_kernel,
    compensator_increment,
    initial_state,
    intensity_at,
    intensity_path,
    kernel_value,
    load_spec,
    save_spec,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
    state_vector,
    stationary_rates,
    validate,
)


class TestSpecConstruction:
    def test_ma_padding_and_q(self, carma31):
        assert carma31.p == 3
        assert carma31.q == 1
        assert carma31.b == (0.2, 0.3, 0.0)

    def test_full_length_ma_allowed(self):
        spec = UnivariateSpec(mu=0.5, a=(3.0, 2.0), b=(1.0, 0.4))
        assert spec.q == 1

    def test_rejects_negative_leading_ma(self):
        with pytest.raises(ValueError):
            UnivariateSpec(mu=0.3, a=(2.0,), b=(-1.0,))

    def test_all_zero_ma_is_poisson(self):
        spec = UnivariateSpec(mu=0.3, a=(1.0,), b=(0.0,))
        assert kernel_value(spec, 1.3) == 0.0

    def test_rejects_bad_baseline_and_shapes(self):
        with pytest.raises(ValueError):
            UnivariateSpec(mu=0.0, a=(2.0,), b=(1.0,))
        with pytest.raises(ValueError):
            UnivariateSpec(mu=-1.0, a=(2.0,), b=(1.0,))
        with pytest.raises(ValueError):
            UnivariateSpec(mu=0.3, a=(), b=(1.0,))
        with pytest.raises(ValueError):
            UnivariateSpec(mu=0.3, a=(2.0,), b=(1.0, 0.5))  # q >= p
        with pytest.raises(ValueError):
            UnivariateSpec(mu=0.3, a=(2.0, math.inf), b=(1.0,))

    def test_bivariate_padding_and_q(self, biv_cross):
        assert biv_cross.p == (2, 1)
        assert biv_cross.q == (1, 0, 0, 0)
        assert biv_cross.b21 == (1.0, 0.0)

    def test_bivariate_allows_zero_lead(self, biv_lagged):
        assert biv_lagged.b22 == (0.0, 1.0)
        assert biv_lagged.q == (0, 1, 0, 1)

    def test_bivariate_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            BivariateSpec(mu=(0.3, 0.0), a1=(1.0,), a2=(1.0,),
                          b11=(1.0,), b12=(0.0,), b21=(0.0,), b22=(1.0,))


class TestValidate:
    def test_hawkes_admissible(self, hawkes):
        rep = validate(hawkes)
        assert rep.admissible
        # oracle: integral of exp(-3t) kernel equals 1/3 by quadrature
        integral, _ = quad(lambda t: math.exp(-3.0 * t), 0, 50)
        assert rep.branching == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert rep.branching == pytest.approx(integral, abs=1e-9)
        assert rep.decay == -3.0
        assert rep.kernel_min >= -1e-12

    def test_carma21_admissible(self, carma21):
        rep = validate(carma21)
        assert rep.admissible
        assert rep.branching == pytest.approx(0.5, abs=1e-15)
        assert rep.decay == pytest.approx(-1.0, abs=1e-12)
        # kernel 0.7 e^-t - 0.4 e^-2t is nonnegative for t >= 0
        assert rep.kernel_min >= -1e-12

    def test_supercritical_flagged(self):
        spec = UnivariateSpec(mu=0.3, a=(2.0,), b=(3.0,))
        rep = validate(spec)
        assert "NonStationary" in rep.flags
        assert rep.branching == pytest.approx(1.5, abs=1e-15)

    def test_positive_decay_flagged(self):
        spec = UnivariateSpec(mu=0.3, a=(-1.0,), b=(0.1,))
        rep = validate(spec)
        assert "NonStationary" in rep.flags
        assert rep.decay == pytest.approx(1.0)

    def test_degenerate_reported_not_raised(self):
        spec = UnivariateSpec(mu=0.3, a=(2.0, 1.0), b=(1.0,))
        rep = validate(spec)
        assert rep.flags == ("DegenerateEigenvalues",)
        assert not rep.admissible

    def test_branching_closed_form_matches_quadrature(self):
        for spec in util.univariate_sets():
            rep = validate(spec)
            span = 50.0 / abs(rep.decay)
            integral, _ = quad(lambda t: kernel_value(spec, t), 0, span, limit=200)
            assert rep.branching == pytest.approx(integral, abs=1e-6)

    def test_bivariate_branching_matrix_and_radius(self, biv_cross):
        rep = validate(biv_cross)
        k = rep.branching_matrix
        assert k[0][0] == pytest.approx(0.5)
        assert k[0][1] == pytest.approx(0.25)
        assert k[1][0] == pytest.approx(0.5)
        assert k[1][1] == pytest.approx(0.075)
        # oracle: eigenvalues of [[0.5, 0.25], [0.5, 0.075]] by hand: 0.7, -0.125
        assert rep.spectral_radius == pytest.approx(0.7, abs=1e-12)
        assert rep.admissible

    def test_bivariate_lagged_kernels_flagged(self, biv_lagged):
        rep = validate(biv_lagged)
        assert rep.flags == ("KernelNegative",)
        mins = dict(rep.kernel_mins)
        assert mins["h12"] < -0.01
        assert mins["h22"] < -0.01
        assert mins["h11"] >= -1e-12
        assert rep.spectral_radius == pytest.approx(0.5)

    def test_bivariate_branching_matrix_matches_quadrature(self, biv_lagged):
        rep = validate(biv_lagged)
        for i in (1, 2):
            for j in (1, 2):
                span = 60.0
                integral, _ = quad(
                    lambda t: channel_kernel(biv_lagged, i, j, t), 0, span, limit=200
                )
                assert rep.branching_matrix[i - 1][j - 1] == pytest.approx(
                    integral, abs=1e-6
                )

    def test_spec_caches_are_bounded(self):
        # a sweep over more distinct specs than the caches hold must not
        # grow them past their bound
        for i in range(model.CACHE_MAXSIZE + 20):
            validate(UnivariateSpec(mu=0.3, a=(3.0 + 1e-3 * i, 2.0), b=(1.0,)))
        for cached in (model.dynamics, model._spectral_of, model.validate):
            info = cached.cache_info()
            assert info.maxsize == model.CACHE_MAXSIZE
            assert info.currsize <= model.CACHE_MAXSIZE


class TestKernel:
    def test_carma21_values(self, carma21):
        # oracle: h(t) = 0.7 e^-t - 0.4 e^-2t (partial fractions by hand)
        assert kernel_value(carma21, 0.0) == pytest.approx(0.3, abs=1e-12)
        expected = 0.7 * math.exp(-1.0) - 0.4 * math.exp(-2.0)
        assert kernel_value(carma21, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_hawkes_value(self, hawkes):
        assert kernel_value(hawkes, 1.0) == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_kernel_at_zero_equals_last_ma_entry(self):
        from carma_hawkes import dynamics

        rng = np.random.default_rng(23)
        specs = util.univariate_sets() + [
            util.random_univariate_spec(rng) for _ in range(25)
        ]
        for spec in specs:
            dyn = dynamics(spec)
            # the spectral sum telescopes to b[p-1]; allow rounding at the
            # scale of the cancelled terms
            scale = max(1.0, sum(abs(w * dz) for w, dz in zip(dyn.weights[0], dyn.jumps[0])))
            assert kernel_value(spec, 0.0) == pytest.approx(
                spec.b[-1], abs=1e-12 * scale
            )

    def test_negative_time_rejected(self, hawkes):
        with pytest.raises(ValueError):
            kernel_value(hawkes, -0.1)

    def test_channel_kernels_at_zero(self, biv_cross):
        # h_{i,j}(0) = last padded entry of b_{i,j}
        assert channel_kernel(biv_cross, 1, 1, 0.0) == pytest.approx(0.7, abs=1e-12)
        assert channel_kernel(biv_cross, 2, 1, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert channel_kernel(biv_cross, 1, 2, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert channel_kernel(biv_cross, 2, 2, 0.0) == pytest.approx(0.3, abs=1e-12)


class TestStateEvolution:
    def test_initial_state_is_zero(self, carma21):
        state = initial_state(carma21)
        assert state.t == 0.0
        assert np.all(state_vector(carma21, state) == 0.0)

    def test_event_jump_scalar(self, hawkes):
        state = apply_event(hawkes, initial_state(hawkes), 0.0)
        assert state_vector(hawkes, state) == pytest.approx([1.0], abs=1e-14)

    def test_event_jump_order_two(self, carma21):
        state = apply_event(carma21, initial_state(carma21), 0.0)
        assert state_vector(carma21, state) == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_bivariate_event_jump_by_mark(self, biv_independent):
        state = apply_event(biv_independent, initial_state(biv_independent), 0.0, mark=2)
        assert state_vector(biv_independent, state) == pytest.approx(
            [0.0, 1.0], abs=1e-14
        )

    def test_event_before_state_rejected(self, hawkes):
        state = apply_event(hawkes, initial_state(hawkes), 1.0)
        with pytest.raises(ValueError):
            apply_event(hawkes, state, 0.5)

    def test_intensity_no_history(self, hawkes):
        assert intensity_at(hawkes, initial_state(hawkes), 5.0) == pytest.approx(
            0.3, abs=1e-15
        )

    def test_intensity_one_event(self, hawkes, carma21):
        state = apply_event(hawkes, initial_state(hawkes), 1.0)
        assert intensity_at(hawkes, state, 2.0) == pytest.approx(
            0.3 + math.exp(-3.0), rel=1e-12
        )
        state2 = apply_event(carma21, initial_state(carma21), 0.0)
        expected = 0.3 + 0.7 * math.exp(-1.0) - 0.4 * math.exp(-2.0)
        assert intensity_at(carma21, state2, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_negative_intensity_guard(self, hawkes, biv_lagged):
        # corrupted state on a validated spec trips the consistency check
        bad = ProcessState(modes=(-5.0 + 0j,), t=0.0, last_event_time=0.0)
        with pytest.raises(NegativeIntensity):
            intensity_at(hawkes, bad, 0.1)
        # a spec with negative kernels is exempt: below-baseline is legitimate
        state = initial_state(biv_lagged)
        state = apply_event(biv_lagged, state, 1.0, mark=2)
        lam1, lam2 = intensity_at(biv_lagged, state, 2.5)
        assert lam2 < 0.3  # the lagged channel really does dip below baseline

    def test_incremental_state_matches_from_scratch(self):
        # oracle: x(t) = sum of exp(A (t - T_i)) e over events, via exp_action
        from carma_hawkes import exp_action, spectral_decompose

        rng = np.random.default_rng(31)
        for _ in range(20):
            spec = util.random_univariate_spec(rng, p_max=4)
            sd = spectral_decompose(spec.a)
            n_ev = int(rng.integers(1, 21))
            times = np.sort(rng.uniform(0.0, 10.0, size=n_ev))
            state = initial_state(spec)
            for t in times:
                state = apply_event(spec, state, float(t))
            t_end = float(times[-1])
            e_vec = np.zeros(spec.p)
            e_vec[-1] = 1.0
            direct = np.zeros(spec.p)
            for t in times:
                direct += exp_action(sd, e_vec, t_end - float(t))
            got = state_vector(spec, state)
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(got - direct)) <= 1e-9 * scale


class TestCompensator:
    def test_pure_poisson(self):
        spec = UnivariateSpec(mu=0.3, a=(1.0,), b=(0.0,))
        inc = compensator_increment(spec, initial_state(spec), 1.0, 2.0)
        assert inc == pytest.approx(0.3, abs=1e-15)

    def test_hawkes_one_event(self, hawkes):
        # oracle: mu * 1 + (1/3)(1 - e^-3)
        state = apply_event(hawkes, initial_state(hawkes), 0.0)
        expected = 0.3 + (1.0 - math.exp(-3.0)) / 3.0
        assert compensator_increment(hawkes, state, 0.0, 1.0) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(0.616738, abs=5e-7)
        # a short interval keeps its relative precision (no exp(x) - 1
        # cancellation): mu h + (1/3)(1 - e^{-3h})
        h = 1e-9
        short = 0.3 * h - math.expm1(-3.0 * h) / 3.0
        assert compensator_increment(hawkes, state, 0.0, h) == pytest.approx(
            short, rel=1e-14
        )

    def test_carma21_one_event(self, carma21):
        # oracle: mu + 0.7 (1 - e^-1) - 0.2 (1 - e^-2)
        state = apply_event(carma21, initial_state(carma21), 0.0)
        expected = 0.3 + 0.7 * (1 - math.exp(-1.0)) - 0.2 * (1 - math.exp(-2.0))
        assert compensator_increment(carma21, state, 0.0, 1.0) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(0.569551, abs=5e-7)

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            spec = util.random_univariate_spec(rng, p_max=4)
            state = initial_state(spec)
            for t in np.sort(rng.uniform(0.0, 4.0, size=int(rng.integers(1, 6)))):
                state = apply_event(spec, state, float(t))
            t0 = state.last_event_time + float(rng.uniform(0.0, 1.0))
            t1 = t0 + float(rng.uniform(0.2, 3.0))
            closed = compensator_increment(spec, state, t0, t1)
            numeric, _ = quad(lambda s: intensity_at(spec, state, s), t0, t1, limit=200)
            assert closed == pytest.approx(numeric, abs=1e-6)

    def test_derivative_matches_intensity(self, carma21):
        # finite differences of the compensator recover the intensity
        rng = np.random.default_rng(41)
        state = apply_event(carma21, initial_state(carma21), 0.5)
        state = apply_event(carma21, state, 1.4)
        h = 1e-6
        for _ in range(100):
            t = 1.4 + float(rng.uniform(0.01, 8.0))
            fd = (
                compensator_increment(carma21, state, 1.4, t + h)
                - compensator_increment(carma21, state, 1.4, t - h)
            ) / (2 * h)
            assert fd == pytest.approx(intensity_at(carma21, state, t), abs=1e-6)

    def test_bivariate_increment_is_per_component(self, biv_cross):
        state = apply_event(biv_cross, initial_state(biv_cross), 0.0, mark=1)
        inc1, inc2 = compensator_increment(biv_cross, state, 0.0, 2.0)
        num1, _ = quad(lambda s: intensity_at(biv_cross, state, s)[0], 0.0, 2.0)
        num2, _ = quad(lambda s: intensity_at(biv_cross, state, s)[1], 0.0, 2.0)
        assert inc1 == pytest.approx(num1, abs=1e-8)
        assert inc2 == pytest.approx(num2, abs=1e-8)

    def test_interval_validation(self, hawkes):
        state = apply_event(hawkes, initial_state(hawkes), 1.0)
        with pytest.raises(ValueError):
            compensator_increment(hawkes, state, 0.5, 2.0)
        with pytest.raises(ValueError):
            compensator_increment(hawkes, state, 2.0, 1.5)


class TestBivariateDecoupling:
    def test_zero_cross_terms_decouple_components(self, biv_independent):
        # with b12 = b21 = 0, each intensity only sees its own component
        times = (0.5, 1.0, 1.7, 2.4, 3.1)
        marks = (1, 2, 1, 2, 2)
        full = util.make_log(times, marks, horizon=4.0)
        only1 = util.make_log(
            [t for t, m in zip(times, marks) if m == 1], None, horizon=4.0
        )
        only2 = util.make_log(
            [t for t, m in zip(times, marks) if m == 2],
            [2, 2, 2],
            horizon=4.0,
        )
        ts = np.linspace(0.0, 4.0, 41)
        lam_full = intensity_path(biv_independent, full, ts)
        lam_1 = intensity_path(biv_independent, only1, ts)
        lam_2 = intensity_path(biv_independent, only2, ts)
        # identical up to rounding from the different event segmentation
        np.testing.assert_allclose(lam_full[:, 0], lam_1[:, 0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(lam_full[:, 1], lam_2[:, 1], rtol=1e-12, atol=1e-14)


class TestRatesAndIO:
    def test_stationary_rates(self, hawkes, carma21, carma31, biv_independent):
        assert stationary_rates(hawkes)[0] == pytest.approx(0.45, abs=1e-12)
        assert stationary_rates(carma21)[0] == pytest.approx(0.6, abs=1e-12)
        # branching = 0.2 / (0.025 + 0.025 pi^2)
        br = 0.2 / (0.025 + 0.025 * math.pi**2)
        assert stationary_rates(carma31)[0] == pytest.approx(0.3 / (1 - br), rel=1e-12)
        assert stationary_rates(carma31)[0] == pytest.approx(1.1364, abs=5e-4)
        assert stationary_rates(biv_independent) == pytest.approx((0.45, 0.6), abs=1e-12)

    def test_rates_infinite_when_supercritical(self):
        spec = UnivariateSpec(mu=0.3, a=(2.0,), b=(3.0,))
        assert stationary_rates(spec) == (math.inf,)

    def test_spec_roundtrip(self, tmp_path, carma31, biv_lagged):
        for spec in (carma31, biv_lagged):
            path = tmp_path / "spec.json"
            save_spec(spec, path)
            again = load_spec(path)
            assert again == spec
            assert spec_hash(again) == spec_hash(spec)

    def test_dict_roundtrip_preserves_supplied_orders(self, carma31):
        d = spec_to_dict(carma31)
        assert d["b"] == [0.2, 0.3]  # trimmed back to supplied length
        assert spec_from_dict(d) == carma31

    def test_orders_inferred_from_lengths(self):
        spec = spec_from_dict(
            {"type": "univariate", "mu": 0.3, "a": [3.0, 2.0], "b": [1.0]}
        )
        assert spec.p == 2
        assert spec.q == 0

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            spec_from_dict({"type": "trivariate"})

    def test_hash_distinguishes_specs(self, hawkes, carma21):
        assert spec_hash(hawkes) != spec_hash(carma21)

    def test_bundled_model_files(self):
        import pathlib

        models = pathlib.Path(__file__).resolve().parents[1] / "models"
        admissible = {
            "hawkes.json": True,
            "carma21.json": True,
            "carma31.json": True,
            "bivariate_independent.json": True,
            "bivariate_cross.json": True,
            "bivariate_lagged.json": False,
        }
        for name, ok in admissible.items():
            spec = load_spec(models / name)
            assert validate(spec).admissible is ok
