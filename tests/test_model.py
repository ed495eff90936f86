import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import util
from carma_hawkes import model, spectral, thinning
from carma_hawkes import (
    BivariateSpec,
    NumericalOverflow,
    RootFindingFailure,
    Spec,
    SpecLogMismatch,
    UnivariateSpec,
    channel_kernel,
    intensity_path,
    load_spec,
    save_spec,
    simulate,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
    stationary_rates,
    summarize,
    validate,
)
from oracles import (
    NegativeIntensity,
    ProcessState,
    apply_event,
    compensator_increment,
    initial_state,
    intensity_at,
    state_vector,
)


class TestSpecConstruction:
    def test_ma_padding_and_q(self, carma31):
        assert len(carma31.ar[0]) == 3
        assert carma31.q == ((1,),)
        assert carma31.ma == (((0.2, 0.3, 0.0),),)

    def test_full_length_ma_allowed(self):
        spec = UnivariateSpec(mu=0.5, a=(3.0, 2.0), b=(1.0, 0.4))
        assert spec.q == ((1,),)

    def test_rejects_negative_leading_ma(self):
        with pytest.raises(ValueError):
            UnivariateSpec(mu=0.3, a=(2.0,), b=(-1.0,))

    def test_all_zero_ma_is_poisson(self):
        spec = UnivariateSpec(mu=0.3, a=(1.0,), b=(0.0,))
        assert channel_kernel(spec, 1, 1, 1.3) == 0.0

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
        assert tuple(map(len, biv_cross.ar)) == (2, 1)
        assert biv_cross.q == ((1, 0), (0, 0))
        assert biv_cross.ma[1][0] == (1.0, 0.0)

    def test_bivariate_allows_zero_lead(self, biv_lagged):
        assert biv_lagged.ma[1][1] == (0.0, 1.0)
        assert biv_lagged.q == ((0, 1), (0, 1))

    def test_constructors_give_one_spec_class(self, hawkes, biv_cross):
        assert hawkes == Spec(mu=(0.3,), ar=((3.0,),), ma=(((1.0,),),))
        assert biv_cross == Spec(
            mu=(0.3, 0.3), ar=((3.0, 2.0), (4.0,)),
            ma=(((1.0, 0.7), (1.0,)), ((1.0,), (0.3,))),
        )
        assert (hawkes.n_components, biv_cross.n_components) == (1, 2)

    def test_at_most_nine_components(self):
        def spec(d):
            return Spec(mu=(0.3,) * d, ar=((2.0,),) * d, ma=(((0.1,),) * d,) * d)

        assert spec(9).n_components == 9
        for d in (0, 10):
            with pytest.raises(ValueError, match="1 to 9 components"):
                spec(d)

    def test_rejects_mismatched_shapes(self):
        ar = ((2.0,), (3.0, 1.0))
        ma = (((0.5,), (0.1,)), ((0.1,), (0.5,)))
        Spec(mu=(0.3, 0.3), ar=ar, ma=ma)
        for bad in (
            dict(mu=0.3, ar=ar, ma=ma),  # a scalar baseline
            dict(mu=(0.3, 0.3), ar=ar[:1], ma=ma),  # one AR block short
            dict(mu=(0.3, 0.3), ar=(ar[0], ()), ma=ma),  # an empty block
            dict(mu=(0.3, 0.3), ar=ar, ma=ma[:1]),  # one MA row short
            dict(mu=(0.3, 0.3), ar=ar, ma=(ma[0], ma[1][:1])),  # a row too short
            dict(mu=(0.3, 0.3), ar=ar, ma=(((0.5, 0.1), (0.1,)), ma[1])),  # q >= p
            dict(mu=(0.3, 0.3), ar=ar, ma=((0.5, 0.1), ma[1])),  # numbers for vectors
        ):
            with pytest.raises(ValueError):
                Spec(**bad)

    def test_coefficients_must_be_real_numbers(self):
        # a string would be read character by character ("32" as (3, 2)), a
        # bool as 0 or 1, and an integer past a double's range would end in
        # an OverflowError: each is a ValueError
        ar = ((2.0,), (3.0, 1.0))
        ma = (((0.5,), (0.1,)), ((0.1,), (0.5,)))
        for bad, message in (
            (dict(mu="0.5", a=(3.0, 2.0), b=(1.0,)), "mu must be a sequence of numbers"),
            (dict(mu=0.5, a="32", b=(1.0,)), r"ar\[0\] must be a sequence of numbers"),
            (dict(mu=True, a=(3.0, 2.0), b=(1.0,)), "mu must be a sequence of numbers"),
            (dict(mu=0.5, a=(3.0, np.bool_(True)), b=(1.0,)), r"ar\[0\] must be a sequence"),
            (dict(mu=10**400, a=(3.0, 2.0), b=(1.0,)), "mu must contain only finite values"),
            (dict(mu=0.5, a=(10**400, 2.0), b=(1.0,)), r"ar\[0\] must contain only finite"),
            (dict(mu=0.5, a=(3.0, 2.0), b=(-(10**400),)), r"ma\[0\]\[0\] must contain only finite"),
        ):
            with pytest.raises(ValueError, match=message):
                UnivariateSpec(**bad)
        for bad in (
            dict(mu=(0.3, False), ar=ar, ma=ma),
            dict(mu=(0.3, 0.3), ar=(ar[0], "31"), ma=ma),
            dict(mu=(0.3, 0.3), ar=ar, ma=(ma[0], (("0.1",), (0.5,)))),
        ):
            with pytest.raises(ValueError, match="must be a sequence of numbers"):
                Spec(**bad)
        # numpy's numbers are real numbers, and Python ints become floats
        spec = UnivariateSpec(
            mu=np.float64(0.5), a=np.array([3.0, 2.0]), b=(np.int64(1), np.float32(0.5))
        )
        assert spec == UnivariateSpec(mu=0.5, a=(3, 2), b=(1.0, 0.5))
        assert all(type(v) is float for v in (*spec.mu, *spec.ar[0], *spec.ma[0][0]))

    def test_positive_lead_only_for_one_component(self):
        with pytest.raises(ValueError, match="must be > 0"):
            Spec(mu=(0.3,), ar=((2.0,),), ma=(((-1.0,),),))
        spec = Spec(mu=(0.3, 0.3), ar=((2.0,), (2.0,)), ma=(((-0.1,), (0.0,)), ((0.0,), (0.5,))))
        assert spec.ma[0][0] == (-0.1,)

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
            integral, _ = quad(lambda t: channel_kernel(spec, 1, 1, t), 0, span, limit=200)
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

    def test_three_components_report_as_multivariate(self, hawkes, biv_cross):
        spec = load_spec(util.MODELS / "trivariate_cyclic.json")
        rep = validate(spec)
        assert rep.admissible
        assert [validate(s).process_type for s in (hawkes, biv_cross, spec)] == [
            "univariate", "bivariate", "multivariate"
        ]
        # the cycle 1 -> 2 -> 3 -> 1 on top of self-excitation: b0 / a_p per entry
        np.testing.assert_allclose(
            rep.branching_matrix, ((0.5, 0.0, 0.3), (0.3, 0.3, 0.0), (0.0, 0.4, 0.2)), atol=1e-15
        )
        assert rep.branching is None
        assert sorted(dict(rep.kernel_mins)) == [f"h{c}{m}" for c in "123" for m in "123"]
        assert rep.spectral_radius == pytest.approx(
            max(abs(np.linalg.eigvals(np.array(rep.branching_matrix)))), rel=1e-12
        )
        assert rep.spectral_radius < 1

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

    def test_envelope_cross_check_runs_per_block(self, monkeypatch):
        # dynamics passes each AR block, with its column-summed MA vector,
        # through bound_constant's dense cross-check
        seen = []
        checked = spectral.bound_constant
        monkeypatch.setattr(
            spectral, "bound_constant", lambda sd, b: seen.append((sd.p, b)) or checked(sd, b)
        )
        validate(UnivariateSpec(mu=0.37, a=(3.1, 2.2), b=(0.4, 0.1)))
        validate(BivariateSpec(mu=(0.37, 0.2), a1=(3.1, 2.2), a2=(1.7,),
                               b11=(0.4,), b12=(0.1,), b21=(0.2, 0.3), b22=(0.5,)))
        assert seen == [(2, (0.4, 0.1)), (2, pytest.approx((0.6, 0.3))), (1, (0.6,))]

        def disagree(sd, b):
            raise RootFindingFailure("envelope-constant formulas disagree")

        monkeypatch.setattr(spectral, "bound_constant", disagree)
        rep = validate(BivariateSpec(mu=(0.38, 0.2), a1=(3.1, 2.2), a2=(1.7,),
                                     b11=(0.4,), b12=(0.1,), b21=(0.2,), b22=(0.5,)))
        assert rep.flags == ("RootFindingFailure",)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_kernel_minima_equal_an_all_mode_evaluation(self, d):
        # each kernel is evaluated on its source block's modes only; the
        # other modes' terms are exact zeros, so every minimum is the one
        # of a sum over all modes on the same grid, to the bit
        rng = np.random.default_rng(40 + d)
        for _ in range(12):
            spec = util.random_spec(rng, d, p_max=3)
            rep = validate(spec)
            dyn = model.dynamics(spec)
            groups = model.mode_groups(dyn)
            decays = [max(lam.real for lam in lams) for lams in model._by_block(dyn, dyn.lams)]
            want = {}
            for c, m in itertools.product(range(d), repeat=2):
                ts = model._kernel_grid(decays[m])
                vals = sum(
                    model.mode_sum(np.exp(np.outer(ts, g.lams)), g.weights[c] * g.jumps[m])
                    for g in groups
                )
                want[f"h{c + 1}{m + 1}"] = float(vals.min())
            got = {"h11": rep.kernel_min} if d == 1 else dict(rep.kernel_mins)
            assert got == want
            assert rep.kernel_min == min(want.values())

    def test_spec_caches_are_bounded(self):
        # a sweep over more distinct specs than the caches hold must not
        # grow them past their bound
        for i in range(model.CACHE_MAXSIZE + 20):
            simulate(UnivariateSpec(mu=0.3, a=(3.0 + 1e-3 * i, 2.0), b=(1.0,)), 1.0, rng=i)
        for cached in (model.dynamics, model.validate, model.mode_groups, model.spec_hash, thinning._kernel):
            info = cached.cache_info()
            assert info.maxsize == model.CACHE_MAXSIZE
            assert info.currsize <= model.CACHE_MAXSIZE


class TestOverflowingConstants:
    # finite coefficients whose sums leave a double: an infinite base would
    # stop thinning's clock, and an infinite envelope weight or K breaks the
    # envelope.  tests/test_cli.py runs simulate on such specs, under a
    # timeout, as a hang there would stall the suite.
    CASES = (
        (BivariateSpec([1e308, 1e308], [1.0], [1.0], [0.1], [0.0], [0.0], [0.1]),
         r"the summed baseline sum\(mu\) = inf"),
        (BivariateSpec([1.0, 1.0], [1.0], [1.0], [1e308], [0.0], [1e308], [0.1]),
         "the envelope weight of mode 1"),
        # roots -1 and -1 - 1e-6: each weight, and their sum, is finite, but
        # the MA coefficients summed over the components are not
        (BivariateSpec([1.0, 1.0], [2.0 + 1e-6, 1.0 + 1e-6], [1.0], [0.9e308, 0.9e308], [0.0],
                       [0.9e308, 0.9e308], [0.1]),
         "the MA coefficients of block 1 sum past a double"),
        # |W| = 1.4e308 and ||S^-1 e|| = sqrt(2): K alone overflows
        (UnivariateSpec(1.0, [3.0, 2.0], [1e308]), "the envelope jump K_1 = inf"),
    )

    @pytest.mark.parametrize("spec, message", CASES)
    def test_dynamics_and_validate_refuse(self, spec, message):
        for call in (model.dynamics, validate):
            with pytest.raises(NumericalOverflow, match=message):
                call(spec)

    def test_largest_finite_constants_pass(self):
        # the checks refuse only what overflows: a base, weight and K just
        # inside a double are kept
        dyn = model.dynamics(BivariateSpec([8e307, 8e307], [1.0], [1.0], [8e307], [0.0], [8e307], [0.1]))
        assert math.isfinite(dyn.base) and math.isfinite(dyn.bound_jumps[0])


class TestKernel:
    def test_carma21_values(self, carma21):
        # oracle: h(t) = 0.7 e^-t - 0.4 e^-2t (partial fractions by hand)
        assert channel_kernel(carma21, 1, 1, 0.0) == pytest.approx(0.3, abs=1e-12)
        expected = 0.7 * math.exp(-1.0) - 0.4 * math.exp(-2.0)
        assert channel_kernel(carma21, 1, 1, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_hawkes_value(self, hawkes):
        assert channel_kernel(hawkes, 1, 1, 1.0) == pytest.approx(math.exp(-3.0), rel=1e-12)

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
            assert channel_kernel(spec, 1, 1, 0.0) == pytest.approx(
                spec.ma[0][0][-1], abs=1e-12 * scale
            )

    def test_negative_time_rejected(self, hawkes):
        with pytest.raises(ValueError):
            channel_kernel(hawkes, 1, 1, -0.1)
        with pytest.raises(ValueError, match="t >= 0, got nan"):
            channel_kernel(hawkes, 1, 1, math.nan)
        # a time past a double's range is refused as the horizon is, not
        # left to overflow inside the kernel's sum
        for t in (math.inf, 10**400, Fraction(10**400)):
            with pytest.raises(ValueError, match="finite t >= 0, got inf"):
                channel_kernel(hawkes, 1, 1, t)

    def test_channel_kernels_at_zero(self, biv_cross):
        # h_{i,j}(0) = last padded entry of b_{i,j}
        assert channel_kernel(biv_cross, 1, 1, 0.0) == pytest.approx(0.7, abs=1e-12)
        assert channel_kernel(biv_cross, 2, 1, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert channel_kernel(biv_cross, 1, 2, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert channel_kernel(biv_cross, 2, 2, 0.0) == pytest.approx(0.3, abs=1e-12)
        for target, source in ((0, 1), (1, 3), (3, 2)):
            with pytest.raises(ValueError, match="must be in 1..2"):
                channel_kernel(biv_cross, target, source, 0.0)

    def test_non_numbers_rejected(self, biv_cross):
        # a bool is no component index and no time, and neither is a float
        # index or a string time: ValueError, not a kernel value or a bare
        # TypeError
        for target, source in ((True, True), (1, False), (1.0, 1)):
            with pytest.raises(ValueError, match="must be in 1..2"):
                channel_kernel(biv_cross, target, source, 1.0)
        for t in ("1.0", True, None):
            with pytest.raises(ValueError, match="real number"):
                channel_kernel(biv_cross, 1, 1, t)
        assert channel_kernel(biv_cross, np.int64(2), 1, np.float64(0.5)) == channel_kernel(
            biv_cross, 2, 1, 0.5
        )


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
        from carma_hawkes import spectral_decompose
        from oracles import exp_action

        rng = np.random.default_rng(31)
        for _ in range(20):
            spec = util.random_univariate_spec(rng, p_max=4)
            sd = spectral_decompose(spec.ar[0])
            n_ev = int(rng.integers(1, 21))
            times = np.sort(rng.uniform(0.0, 10.0, size=n_ev))
            state = initial_state(spec)
            for t in times:
                state = apply_event(spec, state, float(t))
            t_end = float(times[-1])
            e_vec = np.zeros(len(spec.ar[0]))
            e_vec[-1] = 1.0
            direct = np.zeros(len(spec.ar[0]))
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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4))
    def test_diagonal_blocks_validate_as_univariate(self, seed, d):
        # with every cross-excitation MA vector zero a d-component spec is d
        # univariate models side by side, so validate and stationary_rates
        # must agree with those of the parts
        rng = np.random.default_rng(seed)
        parts = [util.random_univariate_spec(rng) for _ in range(d)]
        spec = util.diagonal_spec(parts)
        rep, reps = validate(spec), [validate(u) for u in parts]
        assert rep.flags == tuple(
            f for f in ("NonStationary", "KernelNegative") if any(f in r.flags for r in reps)
        )
        rates = sum((stationary_rates(u) for u in parts), ())
        assert stationary_rates(spec) == pytest.approx(rates, rel=1e-12)
        if d == 1:
            assert rep == reps[0]
            return
        mins = dict(rep.kernel_mins)
        for c, m in itertools.product(range(d), repeat=2):
            if c != m:
                assert rep.branching_matrix[c][m] == mins[f"h{c + 1}{m + 1}"] == 0.0
                continue
            assert rep.branching_matrix[c][c] == reps[c].branching
            # the grid sums cancel; allow rounding at the scale of their terms
            dyn = model.dynamics(parts[c])
            scale = sum(abs(w * dz) for w, dz in zip(dyn.weights[0], dyn.jumps[0]))
            assert mins[f"h{c + 1}{c + 1}"] == pytest.approx(
                reps[c].kernel_min, rel=1e-12, abs=1e-14 * scale
            )


class TestSampledPaths:
    """intensity_path and bound_path read the blocked modal scan; they must
    equal the per-event folds of the model's and the envelope's recursions."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bivariate=st.booleans(),
        extra=st.integers(1, 400),
        dense_scale=st.floats(-3.0, -1.0),
    )
    def test_paths_equal_event_folds(self, seed, bivariate, extra, dense_scale):
        # random specs, admissible or not (forced), on a log whose dense
        # stretch fills scan blocks by event count and whose sparse stretch
        # cuts them by span
        rng = np.random.default_rng(seed)
        make = util.random_bivariate_spec if bivariate else util.random_univariate_spec
        spec = make(rng)
        max_rate = max(abs(lam.real) for lam in model.dynamics(spec).lams)
        n_dense = model.BLOCK_EVENTS + extra
        sparse = rng.exponential(3 * model.BLOCK_EXPONENT / max_rate / 100, size=100)
        times = np.cumsum(np.concatenate([rng.exponential(10.0**dense_scale, size=n_dense), sparse]))
        assert (times[-1] - times[n_dense]) * max_rate > model.BLOCK_EXPONENT
        log = util.make_log(times, rng.integers(1, spec.n_components + 1, size=len(times)))
        samples = np.sort(np.concatenate(
            [[0.0], times[::7], rng.uniform(0.0, 1.05 * times[-1], size=600)]
        ))
        lam_ref, lam_sizes = util.intensity_path_fold(spec, log, samples)
        bar_ref = util.bound_path_fold(spec, log, samples)
        # the envelope's terms are all positive, so its size is its value
        for got, want, size in (
            (intensity_path(spec, log, samples), lam_ref, lam_sizes),
            (thinning.bound_path(spec, log, samples), bar_ref, bar_ref),
        ):
            assert got.shape == want.shape
            worst = np.max(np.abs(got - want) / np.maximum(1.0, size))
            assert worst <= 1e-12, f"relative disagreement {worst:.3g}"

    def test_inexact_pair_paths_equal_event_folds(self, carma31, monkeypatch):
        # the pair's second weight one ulp off, so the intensity's scan
        # carries both modes as complex; the random specs only draw exact pairs
        bent = util.bent_pair(model.dynamics(carma31))
        for module in (model, util):
            monkeypatch.setattr(module, "dynamics", lambda spec: bent)
        rng = np.random.default_rng(13)
        times = np.cumsum(rng.exponential(0.5, size=300))
        log = util.make_log(times)
        samples = np.sort(rng.uniform(0.0, times[-1] + 1.0, size=500))
        want, sizes = util.intensity_path_fold(carma31, log, samples)
        worst = np.max(np.abs(intensity_path(carma31, log, samples) - want) / np.maximum(1.0, sizes))
        assert worst <= 1e-12, f"relative disagreement {worst:.3g}"
        bar = thinning.bound_path(carma31, log, samples)
        assert np.max(np.abs(bar - util.bound_path_fold(carma31, log, samples)) / bar) <= 1e-12

    def test_scan_passes_hold_at_most_block_events(self, biv_cross):
        # the bound on the scan's working arrays, which keeps memory flat: a
        # dense stretch and a sparse one, whose segments are cut by span
        rng = np.random.default_rng(3)
        n = 3 * model.BLOCK_EVENTS + 5
        gaps = np.concatenate([rng.exponential(0.01, n // 2), rng.exponential(50.0, n - n // 2)])
        times = np.cumsum(gaps)
        marks = rng.integers(1, 3, size=n)
        for group in model.mode_groups(model.dynamics(biv_cross)):
            covered = 0
            for start, stop, states in model.modal_scan(group.lams, group.jumps, times, marks):
                assert start == covered and 0 < stop - start <= model.BLOCK_EVENTS
                assert states.shape == (stop - start + 1, len(group.lams))
                covered = stop
            assert covered == n

    def test_samples_beyond_one_chunk(self, hawkes):
        # one event owns more samples than modal_path evaluates at once
        log = util.make_log([1.0])
        ts = np.linspace(0.0, 10.0, 3 * model.BLOCK_EVENTS + 5)
        want = 0.3 + np.where(ts > 1.0, np.exp(-3.0 * (ts - 1.0)), 0.0)
        assert np.max(np.abs(intensity_path(hawkes, log, ts) - want)) < 1e-15
        assert np.max(np.abs(thinning.bound_path(hawkes, log, ts) - want)) < 1e-15

    def test_empty_log_and_no_samples(self, carma21, biv_cross):
        empty = util.make_log([])
        assert intensity_path(carma21, empty, [0.0, 5.0]).tolist() == [0.3, 0.3]
        assert thinning.bound_path(biv_cross, empty, [2.0]).tolist() == [0.6]
        log = util.make_log([1.0, 2.0], [1, 2])
        assert intensity_path(biv_cross, log, []).shape == (0, 2)
        assert thinning.bound_path(biv_cross, log, []).shape == (0,)

    @pytest.mark.parametrize(
        "samples", [[1.0, 0.5], [-1.0, 2.0], [1.0, math.nan], [math.inf], [-math.inf, 1.0]]
    )
    def test_bad_sample_times_rejected(self, carma21, samples):
        log = util.make_log([0.5, 1.5])
        for path in (intensity_path, thinning.bound_path):
            with pytest.raises(ValueError, match="sample times"):
                path(carma21, log, samples)

    @pytest.mark.parametrize(
        "samples",
        [["5", "9"], [True, 9.0], [1.0, None], np.array([False, True]), np.array(["1", "2"]),
         [1, 10**400]],
    )
    def test_non_real_sample_times_rejected(self, carma21, samples):
        # numpy's float conversion would read a string or a bool as a time;
        # they are refused as horizons are (an int past a double's range is
        # not finite)
        log = util.make_log([0.5, 1.5])
        for path in (intensity_path, thinning.bound_path):
            with pytest.raises(ValueError, match="sample times must be"):
                path(carma21, log, samples)

    def test_numpy_and_int_sample_times_accepted(self, carma21):
        log = util.make_log([0.5, 1.5])
        want = intensity_path(carma21, log, [1.0, 2.0])
        for samples in ([1, 2], [np.float32(1.0), np.int64(2)], np.array([1, 2])):
            assert intensity_path(carma21, log, samples).tolist() == want.tolist()

    def test_mark_outside_spec_rejected(self, carma21):
        # the residuals' check (model.check_log_marks), whose error is a
        # ValueError too
        log = util.make_log([0.5, 1.5], [1, 2])  # a bivariate log
        assert issubclass(SpecLogMismatch, ValueError)
        for path in (intensity_path, thinning.bound_path):
            with pytest.raises(SpecLogMismatch, match="mark outside 1..1"):
                path(carma21, log, [1.0])


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
        assert len(spec.ar[0]) == 2
        assert spec.q == ((0,),)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4))
    def test_dict_roundtrip_any_component_count(self, seed, d):
        spec = util.random_spec(np.random.default_rng(seed), d)
        data = json.loads(json.dumps(spec_to_dict(spec)))
        assert data["type"] == ("univariate", "bivariate", "multivariate", "multivariate")[d - 1]
        again = spec_from_dict(data)
        assert again == spec
        assert spec_hash(again) == spec_hash(spec)

    def test_multivariate_form_of_any_size(self, hawkes, biv_cross):
        assert spec_from_dict({"type": "multivariate", "mu": [0.3], "a": [[3.0]], "b": [[[1.0]]]}) == hawkes
        data = {
            "type": "multivariate", "mu": [0.3, 0.3], "a": [[3.0, 2.0], [4.0]],
            "b": [[[1.0, 0.7], [1.0]], [[1.0], [0.3]]],
        }
        assert spec_from_dict(data) == biv_cross
        assert spec_to_dict(biv_cross)["type"] == "bivariate"

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            spec_from_dict({"type": "trivariate"})

    def test_hash_distinguishes_specs(self, hawkes, carma21):
        assert spec_hash(hawkes) != spec_hash(carma21)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bivariate=st.booleans())
    def test_hash_is_sha256_of_the_canonical_json(self, seed, bivariate):
        # the built-in SHA-256, cached per spec, gives hashlib's digest
        make = util.random_bivariate_spec if bivariate else util.random_univariate_spec
        spec = make(np.random.default_rng(seed))
        payload = json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))
        want = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert spec_hash(spec) == want
        assert spec_hash(spec_from_dict(spec_to_dict(spec))) == want

    def test_negative_zero_is_zero(self):
        # equal specs share one cache entry, so they must share one digest
        plus = UnivariateSpec(mu=0.3, a=(3.0, 2.0), b=(1.0, 0.0))
        minus = UnivariateSpec(mu=0.3, a=(3.0, 2.0), b=(1.0, -0.0))
        assert minus == plus
        assert math.copysign(1.0, minus.ma[0][0][1]) == 1.0
        assert json.dumps(spec_to_dict(minus)) == json.dumps(spec_to_dict(plus))
        assert spec_hash(minus) == spec_hash(plus)

    def test_one_digest_per_spec(self, biv_cross):
        # simulate's sidecar and summarize's one spec check, for both
        # components, share one json.dumps and SHA-256
        spec_hash.cache_clear()
        summarize(biv_cross, simulate(biv_cross, 50.0, rng=1))
        info = spec_hash.cache_info()
        assert (info.misses, info.hits) == (1, 1)

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
            "trivariate_cyclic.json": True,
        }
        for name, ok in admissible.items():
            spec = load_spec(models / name)
            assert validate(spec).admissible is ok
