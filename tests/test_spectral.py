import cmath
import math

import numpy as np
import pytest

import util
from carma_hawkes import (
    DegenerateEigenvalues,
    NumericalOverflow,
    RootFindingFailure,
    bound_constant,
    build_companion,
    spectral_decompose,
)
from carma_hawkes.spectral import (
    _bound_constant_dense,
    _check_roots,
    _l2,
    char_value,
    ma_value,
)
from oracles import exp_action


class TestCompanion:
    def test_scalar(self):
        assert build_companion([3.0]).tolist() == [[-3.0]]

    def test_quadratic(self):
        assert build_companion([3.0, 2.0]).tolist() == [[0.0, 1.0], [-2.0, -3.0]]

    def test_cubic_layout(self):
        a = util.A31
        mat = build_companion(a)
        assert mat.shape == (3, 3)
        assert mat[0].tolist() == [0.0, 1.0, 0.0]
        assert mat[1].tolist() == [0.0, 0.0, 1.0]
        assert mat[2].tolist() == [-a[2], -a[1], -a[0]]

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            build_companion([])
        with pytest.raises(ValueError):
            build_companion([math.nan])
        # the rule a Spec keeps: a bool or a string is no coefficient, and
        # 10**400 none within a double's range (no bare OverflowError)
        for bad in ("3", True, np.True_, math.nan, 10**400):
            for call in (build_companion, spectral_decompose):
                with pytest.raises(ValueError):
                    call([bad, 2.0])
                with pytest.raises(ValueError):
                    call([bad])


class TestDecompose:
    def test_scalar(self):
        sd = spectral_decompose([3.0])
        assert sd.eigenvalues == (-3.0 + 0j,)
        assert sd.aprime == (1.0 + 0j,)
        assert sd.decay == -3.0

    def test_quadratic_against_quadratic_formula(self):
        # oracle: roots of z^2 + 3z + 2 by the quadratic formula
        disc = math.sqrt(3.0**2 - 4 * 2.0)
        expected = sorted([(-3.0 + disc) / 2, (-3.0 - disc) / 2], reverse=True)
        sd = spectral_decompose([3.0, 2.0])
        got = [z.real for z in sd.eigenvalues]
        assert got == pytest.approx(expected, abs=1e-12)
        # a'(z) = 2z + 3 at each root
        assert sd.aprime[0] == pytest.approx(2 * expected[0] + 3, abs=1e-12)
        assert sd.aprime[1] == pytest.approx(2 * expected[1] + 3, abs=1e-12)
        assert sd.sinv_e[0] == pytest.approx(1.0, abs=1e-12)
        assert sd.sinv_e[1] == pytest.approx(-1.0, abs=1e-12)
        assert sd.decay == pytest.approx(-1.0, abs=1e-12)

    def test_double_root_raises(self):
        # discriminant of z^2 + 2z + 1 is zero
        with pytest.raises(DegenerateEigenvalues):
            spectral_decompose([2.0, 1.0])

    def test_conjugate_pairs(self):
        sd = spectral_decompose(util.A31)
        complexes = [z for z in sd.eigenvalues if abs(z.imag) > 1e-12]
        assert len(complexes) == 2
        assert complexes[0].conjugate() == complexes[1]

    def test_root_residuals(self):
        rng = np.random.default_rng(7)
        polys = [s.ar[0] for s in util.univariate_sets()]
        polys += [util.random_univariate_spec(rng).ar[0] for _ in range(30)]
        for a in polys:
            sd = spectral_decompose(a)
            tol = 1e-9 * max(1.0, max(abs(c) for c in a))
            for lam in sd.eigenvalues:
                assert abs(char_value(a, lam)) < tol

    def test_check_roots_flags_bad_residual(self):
        with pytest.raises(RootFindingFailure):
            _check_roots((3.0, 2.0), [complex(-1.1), complex(-2.0)])

    def test_sinv_e_times_aprime_is_one(self):
        for spec in util.univariate_sets():
            sd = spectral_decompose(spec.ar[0])
            for se, ap in zip(sd.sinv_e, sd.aprime):
                assert se * ap == pytest.approx(1.0 + 0j, abs=1e-12)


class TestNormInequality:
    def test_mode_factors_bounded_by_decay_envelope(self):
        # each |exp(lam_j t)| <= exp(decay t), attained at the max-real root
        for spec in util.univariate_sets() + [util.biv_lagged()]:
            for a in spec.ar:
                sd = spectral_decompose(a)
                for t in np.linspace(0.0, 5.0, 23):
                    env = math.exp(sd.decay * t)
                    factors = [abs(cmath.exp(lam * t)) for lam in sd.eigenvalues]
                    for f in factors:
                        assert f <= env * (1 + 1e-14)
                    j = max(range(len(factors)), key=lambda i: sd.eigenvalues[i].real)
                    assert factors[j] == pytest.approx(env, rel=1e-14)


class TestExpAction:
    def test_zero_dt_is_identity(self):
        sd = spectral_decompose([3.0, 2.0])
        v = np.array([0.7, -1.2])
        assert exp_action(sd, v, 0.0) == pytest.approx(v.tolist(), abs=0)

    def test_scalar_decay(self):
        sd = spectral_decompose([3.0])
        out = exp_action(sd, [1.0], 1.0)
        assert out[0] == pytest.approx(math.exp(-3.0), rel=1e-14)

    def test_two_by_two_hand_case(self):
        # oracle: S = [[1,1],[-1,-2]], S^-1 e = (1,-1), exp(Lam) = diag(e^-1, e^-2)
        sd = spectral_decompose([3.0, 2.0])
        out = exp_action(sd, [0.0, 1.0], 1.0)
        e1, e2 = math.exp(-1.0), math.exp(-2.0)
        assert out[0] == pytest.approx(e1 - e2, rel=1e-12)
        assert out[1] == pytest.approx(-e1 + 2 * e2, rel=1e-12)
        # cross-check: b . out must equal the kernel value 0.7 e^-1 - 0.4 e^-2
        b = np.array([1.0, 0.3])
        assert float(b @ out) == pytest.approx(0.7 * e1 - 0.4 * e2, rel=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec = util.random_univariate_spec(rng, p_max=4)
            sd = spectral_decompose(spec.ar[0])
            v = rng.standard_normal(sd.p)
            t1, t2 = rng.uniform(0.05, 2.0, size=2)
            once = exp_action(sd, v, t1 + t2)
            twice = exp_action(sd, exp_action(sd, v, t1), t2)
            assert np.max(np.abs(once - twice)) <= 1e-10 * max(
                1.0, float(np.max(np.abs(once)))
            )

    def test_imaginary_residue_small_for_real_input(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            spec = util.random_univariate_spec(rng, p_max=4)
            sd = spectral_decompose(spec.ar[0])
            v = rng.standard_normal(sd.p).astype(complex)
            out = exp_action(sd, v, float(rng.uniform(0.0, 3.0)))
            assert float(np.max(np.abs(out.imag))) < 1e-10

    def test_overflow_raises(self):
        sd = spectral_decompose([-1.0])  # root at +1: unstable
        with pytest.raises(NumericalOverflow):
            exp_action(sd, [1.0], 1000.0)

    def test_bad_inputs(self):
        sd = spectral_decompose([3.0, 2.0])
        with pytest.raises(ValueError):
            exp_action(sd, [1.0], 1.0)  # wrong length
        with pytest.raises(ValueError):
            exp_action(sd, [1.0, 2.0], -0.5)


class TestBoundConstant:
    def test_scalar_unit(self):
        sd = spectral_decompose([3.0])
        assert bound_constant(sd, [1.0]) == pytest.approx(1.0, abs=0)

    def test_order_two_hand_case(self):
        # oracle: b(-1) = 0.7, b(-2) = 0.4, a' values +-1 =>
        # K = sqrt(0.7^2 + 0.4^2) * sqrt(2)
        sd = spectral_decompose([3.0, 2.0])
        expected = math.sqrt(0.7**2 + 0.4**2) * math.sqrt(2.0)
        assert bound_constant(sd, [1.0, 0.3]) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.140175, abs=5e-7)

    def test_zero_vector(self):
        sd = spectral_decompose([3.0, 2.0])
        assert bound_constant(sd, [0.0, 0.0]) == 0.0

    def test_pads_short_vectors(self):
        sd = spectral_decompose([3.0, 2.0])
        assert bound_constant(sd, [1.0]) == bound_constant(sd, [1.0, 0.0])

    def test_refuses_values_that_are_not_finite_numbers(self):
        # refused before any norm is taken, so with no RuntimeWarning
        # (which the suite turns into an error)
        sd = spectral_decompose([3.0, 2.0])
        for bad in ("0.4", True, math.inf, math.nan):
            for b in ([bad], [1.0, bad]):
                with pytest.raises(ValueError, match="moving-average vector must"):
                    bound_constant(sd, b)

    def test_forms_agree(self):
        rng = np.random.default_rng(17)
        specs = util.univariate_sets()
        specs += [util.random_univariate_spec(rng) for _ in range(40)]
        for spec in specs:
            sd = spectral_decompose(spec.ar[0])
            k_spec = _l2(ma_value(spec.ma[0][0], lam) for lam in sd.eigenvalues) * _l2(
                sd.sinv_e
            )
            k_dense = _bound_constant_dense(sd, spec.ma[0][0])
            assert abs(k_spec - k_dense) <= 1e-12 * max(k_spec, k_dense, 1e-300)

    def test_norms_scale_only_past_the_double_range(self):
        # in range, the plain sum of squares, bit for bit (hypot rounds
        # this one the other way)
        assert _l2((0.1, 0.1j)) == math.sqrt(0.1**2 + 0.1**2) != math.hypot(0.1, 0.1)
        vals = (0.7, -0.4 + 0.1j, 1e-150, 3e150)
        assert _l2(vals) == math.sqrt(sum(abs(v) ** 2 for v in vals))
        # where the squares overflow or underflow, the scaled norm
        assert _l2((1e300, 1e300)) == math.hypot(1e300, 1e300)
        assert _l2((3e-300, -4e-300j)) == math.hypot(3e-300, 4e-300)
        assert _l2((1e-300,)) == 1e-300
        assert _l2((0.0, 0j)) == 0.0
        sd = spectral_decompose([3.0, 2.0])
        for scale in (1e300, 1e-300, 1e-160, 2.0**600):
            b = [0.5 * scale, 0.25 * scale]
            want = _bound_constant_dense(sd, [0.5, 0.25]) * scale
            assert _bound_constant_dense(sd, b) == pytest.approx(want, rel=1e-14)
            assert bound_constant(sd, b) == pytest.approx(want, rel=1e-14)
        # a power-of-two scale leaves the form exact
        assert _bound_constant_dense(sd, [2.0**600, 2.0**599]) == (
            _bound_constant_dense(sd, [1.0, 0.5]) * 2.0**600
        )
