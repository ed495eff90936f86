"""Companion-matrix spectra and the constants they induce.

A monic polynomial a(z) = z^p + a1 z^{p-1} + ... + ap defines a p x p
companion matrix A whose eigenvalues are the roots of a(z).  When the roots
are distinct, A = S diag(roots) S^{-1} with S the Vandermonde matrix of the
roots, and everything downstream (kernel evaluation, exact propagation of the
excitation state, intensity envelopes) reduces to closed forms in the roots
lam_j, the derivative values a'(lam_j), and the largest real part.

Two identities do the heavy lifting here:

  * S^{-1} e, with e = (0, ..., 0, 1), equals (1/a'(lam_j))_j componentwise,
    so the last-column action of S^{-1} never requires a linear solve.
  * b^T S evaluated against a coefficient vector b is (b(lam_j))_j, the MA
    polynomial evaluated at the roots.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from numbers import Integral, Rational, Real
from typing import TYPE_CHECKING, Sequence

from .errors import DegenerateEigenvalues, RootFindingFailure

if TYPE_CHECKING:
    import numpy as np

# Residual tolerance for |a(root)|, relative to max(1, max |a_i|).
ROOT_RESIDUAL_RTOL = 1e-9
# Roots closer than this (relative to max(1, max |root|)) are degenerate.
DISTINCTNESS_RTOL = 1e-7
# Internal cross-check between the two envelope-constant formulas.  Tests pin
# 1e-12 on well-conditioned inputs; the guard is looser so that legally
# distinct but badly separated roots do not trip it.
_FORM_GUARD_RTOL = 1e-8
# exp(x) overflows near x = 709.78 for IEEE doubles.
_EXP_OVERFLOW = 700.0
# The least norm whose square is a normal double.
_SQRT_MIN = math.sqrt(sys.float_info.min)


@dataclass(frozen=True)
class SpectralData:
    """Spectrum of a companion matrix with distinct eigenvalues.

    eigenvalues -- the p roots of a(z), conjugate-closed for real input
    aprime      -- a'(lam_j) for each root
    sinv_e      -- components of S^{-1} e, equal to 1/a'(lam_j)
    decay       -- max real part over the roots
    p           -- polynomial degree / matrix dimension
    """

    eigenvalues: tuple[complex, ...]
    aprime: tuple[complex, ...]
    sinv_e: tuple[complex, ...]
    decay: float
    p: int


def _is_real(value) -> bool:
    """Whether value is a real number, numpy's included; a bool or a string
    is not.  The package's one number rule for every outside input."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """Whether value is an integer, numpy's included; a bool, a float such
    as 2.0 or a string is not.  The package's one integer rule for every
    outside input: seeds, sidecar counts, marks and component indices."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _as_float(value) -> float:
    """A real number (_is_real) as a float, inf for an integer or a
    fraction past a double's range, which float() refuses."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _finite_tuple(vals, name: str) -> tuple[float, ...]:
    """The values as Python floats, each -0.0 read as 0.0: equal specs then
    hold the same floats, and so the same canonical JSON (spec_hash).  Each
    value must be a real number (_is_real): a bool or a string, which would
    be read character by character, is refused, and so is one that is not
    finite or is past a double's range; each raises ValueError."""
    try:
        items = tuple(vals)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of numbers") from None
    if not all(map(_is_real, items)):
        raise ValueError(f"{name} must be a sequence of numbers")
    out = tuple(_as_float(v) + 0.0 for v in items)
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"{name} must contain only finite values")
    return out


def _real_array(values, what: str, integer: bool = False) -> np.ndarray:
    """The values as a new float64 array, or as an int64 one if integer.
    Unless they are an array numpy converts exactly (integer or float for
    float64, signed integer for int64), or Python floats (ints for int64)
    alone within range, each is checked one by one, as
    np.array((0.5, True)) reads the bool as 1.0: one that is not a real
    number (_is_real; for int64 an integer, _is_int), or is an integer or a
    fraction beyond +-limit, the dtype's largest value (a float cannot be
    past a double's), raises ValueError "index i: what, got v"."""
    import numpy as np

    if integer:
        dtype, is_number, kinds, plain, limit = np.int64, _is_int, "i", int, 2**63 - 1
    else:
        dtype, is_number, kinds, plain, limit = np.float64, _is_real, "iuf", float, sys.float_info.max
    if isinstance(values, np.ndarray) and values.dtype.kind in kinds or set(map(type, values)) <= {plain}:
        try:
            return np.array(values, dtype=dtype)
        except OverflowError:  # a Python int past int64, named below
            pass
    for row, v in enumerate(values):
        if not is_number(v) or isinstance(v, Rational) and not -limit <= v <= limit:
            raise ValueError(f"index {row}: {what}, got {v!r}")
    return np.array(values, dtype=dtype)


def char_value(a: Sequence[float], z: complex) -> complex:
    """a(z) = z^p + a1 z^{p-1} + ... + ap, by Horner's rule."""
    acc: complex = 1.0 + 0j
    for c in a:
        acc = acc * z + c
    return acc


def char_deriv_value(a: Sequence[float], z: complex) -> complex:
    """a'(z) = p z^{p-1} + a1 (p-1) z^{p-2} + ... + a_{p-1}."""
    p = len(a)
    acc: complex = complex(p)
    for i in range(p - 1):
        acc = acc * z + (p - 1 - i) * a[i]
    return acc


def ma_value(b: Sequence[float], z: complex) -> complex:
    """b(z) = b0 + b1 z + ... + b_{p-1} z^{p-1}."""
    acc: complex = 0j
    for c in reversed(b):
        acc = acc * z + c
    return acc


def build_companion(a: Sequence[float]) -> np.ndarray:
    """Companion matrix of z^p + a1 z^{p-1} + ... + ap.

    Ones on the superdiagonal, last row (-ap, ..., -a1), zeros elsewhere.
    For p = 1 this is the scalar matrix (-a1).  Coefficients that are not
    finite real numbers (_finite_tuple), or none at all, raise ValueError.
    """
    import numpy as np

    coeffs = _finite_tuple(a, "polynomial coefficients")
    p = len(coeffs)
    if not p:
        raise ValueError("need at least one polynomial coefficient")
    mat = np.zeros((p, p), dtype=float)
    for i in range(p - 1):
        mat[i, i + 1] = 1.0
    mat[p - 1, :] = [-c for c in reversed(coeffs)]
    return mat


def _check_roots(a: Sequence[float], roots: Sequence[complex]) -> None:
    """Raise on degenerate or inaccurate roots for the given polynomial."""
    scale = max(1.0, max(abs(r) for r in roots))
    tol = DISTINCTNESS_RTOL * scale
    n = len(roots)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < tol:
                raise DegenerateEigenvalues(
                    f"roots {roots[i]} and {roots[j]} are closer than {tol:.3e}"
                )
    res_tol = ROOT_RESIDUAL_RTOL * max(1.0, max(abs(c) for c in a))
    for r in roots:
        res = abs(char_value(a, r))
        if res > res_tol:
            raise RootFindingFailure(
                f"|a({r})| = {res:.3e} exceeds tolerance {res_tol:.3e}"
            )


def spectral_decompose(a: Sequence[float]) -> SpectralData:
    """Roots of the characteristic polynomial plus derived spectral constants.

    Roots come from the companion-matrix eigensolver, followed by one Newton
    polish step (kept only when it reduces the residual).  Raises
    DegenerateEigenvalues if any two roots fall within the distinctness
    tolerance, RootFindingFailure if a residual |a(root)| stays above
    tolerance, and ValueError for coefficients that are not finite real
    numbers (_finite_tuple: a bool, a string, NaN or 10**400), or none (the
    check build_companion makes).
    """
    coeffs = _finite_tuple(a, "polynomial coefficients")
    p = len(coeffs)
    if p == 1:
        roots = [complex(-coeffs[0])]
    else:
        import numpy as np

        roots = [complex(z) for z in np.linalg.eigvals(build_companion(coeffs))]
        polished = []
        for r in roots:
            fp = char_deriv_value(coeffs, r)
            if abs(fp) > 1e-300:
                r2 = r - char_value(coeffs, r) / fp
                if abs(char_value(coeffs, r2)) <= abs(char_value(coeffs, r)):
                    r = r2
            polished.append(r)
        roots = polished
    roots.sort(key=lambda z: (-z.real, z.imag))
    _check_roots(coeffs, roots)
    aprime = tuple(char_deriv_value(coeffs, r) for r in roots)
    sinv_e = tuple(1.0 / ap for ap in aprime)
    decay = max(r.real for r in roots)
    return SpectralData(
        eigenvalues=tuple(roots),
        aprime=aprime,
        sinv_e=sinv_e,
        decay=decay,
        p=p,
    )


def vandermonde(s: SpectralData) -> np.ndarray:
    """The eigenvector matrix S, column j = (1, lam_j, ..., lam_j^{p-1})."""
    import numpy as np

    return np.vander(np.array(s.eigenvalues), N=s.p, increasing=True).T


def _pad(b: Sequence[float], p: int) -> tuple[float, ...]:
    bt = _finite_tuple(b, "moving-average vector")
    if len(bt) > p:
        raise ValueError(f"moving-average vector longer than order {p}")
    return bt + (0.0,) * (p - len(bt))


def _l2(vals) -> float:
    """Euclidean norm of real or complex values: sqrt of the sum of squared
    moduli where that sum is a finite normal double (or every value is 0),
    else math.hypot, which scales, so a norm that a double holds never
    overflows or underflows on the way."""
    mags = [abs(v) for v in vals]
    try:
        total = sum(m ** 2 for m in mags)
    except OverflowError:
        total = math.inf
    if any(mags) and not sys.float_info.min <= total < math.inf:
        return math.hypot(*mags)
    return math.sqrt(total)


def _bound_constant_dense(s: SpectralData, b: Sequence[float]) -> float:
    """||b^T S||_2 * ||S^{-1} e||_2 with S materialised and e solved for.

    Where the squares behind ||b^T S|| overflow or underflow a double, b is
    scaled by a power of two first, so that max|b| lies in [0.5, 1), and
    the norm scaled back, which is exact where nothing overflows."""
    import numpy as np

    bf = np.array(_pad(b, s.p))
    mat = vandermonde(s)
    e = np.zeros(s.p, dtype=complex)
    e[-1] = 1.0
    se_norm = np.linalg.norm(np.linalg.solve(mat, e))
    with np.errstate(over="ignore", under="ignore"):
        bs_norm = np.linalg.norm(bf @ mat)
        if bf.any() and not _SQRT_MIN <= bs_norm < math.inf:
            shift = math.frexp(float(np.abs(bf).max()))[1]
            bs_norm = np.ldexp(np.linalg.norm(np.ldexp(bf, -shift) @ mat), shift)
        return float(bs_norm * se_norm)


def bound_constant(s: SpectralData, b: Sequence[float]) -> float:
    """Per-event jump size of the dominating intensity envelope.

    Computed as sqrt(sum_j |b(lam_j)|^2) * sqrt(sum_j |1/a'(lam_j)|^2); the
    equivalent norm-product form through the materialised Vandermonde matrix
    is evaluated as a cross-check and the two must agree.  An MA vector
    longer than s.p, or holding a value that is not a finite real number
    (_finite_tuple), raises ValueError.
    """
    bp = _pad(b, s.p)
    k_spec = _l2(ma_value(bp, lam) for lam in s.eigenvalues) * _l2(s.sinv_e)
    k_dense = _bound_constant_dense(s, bp)
    denom = max(k_spec, k_dense, 1e-300)
    if abs(k_spec - k_dense) > _FORM_GUARD_RTOL * denom:
        raise RootFindingFailure(
            f"envelope-constant formulas disagree: {k_spec!r} vs {k_dense!r}"
        )
    return k_spec
