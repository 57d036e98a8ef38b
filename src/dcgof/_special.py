"""Normal, logistic and chi-square(1) distribution functions in numpy.

The package needs six special functions: the normal cdf and its quantile,
the logistic cdf and its quantile, and the regularized incomplete gamma
functions at ``a = 1/2``, which are ``erf`` and ``erfc`` of ``sqrt(v)``.
They are written here with numpy alone, so that importing the package does
not import scipy.

Each distribution function returns its lower and upper tail together, each
to full relative accuracy, from one evaluation:

- ``ndtr_pair(x) = (Phi(x), Phi(-x))`` and
  ``gammainc_half_pair(v) = (P(1/2, v), Q(1/2, v))`` come from
  :func:`_normal_tail` and :func:`_erf_pair`: ``exp(-z^2)`` times a rational
  approximation in the manner of Cody (1969, *Math. Comp.* 23), with the
  argument of ``exp`` split as in Cephes' ``expx2``;
- ``expit_pair(x) = (expit(x), expit(-x))`` from one ``exp(-|x|)``.

The quantiles are :func:`ndtri`, in the three-branch layout of Wichura's
AS 241 (1988, *JRSS C* 37), and :func:`logit`.  No function warns:
infinite arguments give the limits, NaN gives NaN.

Accuracy.  Every rational approximation here corrects a leading term that
is formed with one or two roundings (``a + sqrt(2/pi)``, ``sqrt(2 pi)``,
...), so the rounding errors of its Horner steps enter the result damped by
the correction's share, at most about a quarter.  The coefficients were
fitted to mpmath values at 50 digits (weighted minimax by reweighted least
squares), and ``tests/test_special.py`` checks each function against mpmath
to 4 ulp and against scipy.

Speed.  A batch runs through one main branch as whole-array numpy
operations; the far tail of ``erfc`` and the small-argument ``erf`` run only
on the elements that need them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ndtr_pair", "gammainc_half_pair", "expit_pair", "ndtri", "logit"]

# sqrt(2/pi) and sqrt(2 pi) as a double plus the remainder.
_K = 0.7978845608028654
_K_LO = -4.9846544045625e-17
_C2PI = 2.5066282746310007
_C2PI_LO = -1.8328997905294e-16

# Coefficient tuples run from the highest power down.
#
# Main branch of erfc, 0 <= a <= 8 sqrt(2), z = a/sqrt(2):
#   erfc(z) = _K exp(-z^2) / (a + _K + a G(a)),  G of degree (8, 8), its
#   denominator monic to save a multiplication.
_G_P = (
    -5.778526475630588e-09, -0.7978840014648482, -19.143772082128077,
    -218.53475784807262, -1524.6319227786867, -7009.00231330387,
    -21347.947930476817, -40446.26902352416, -38503.71336831612,
)
_G_Q = (
    1.0, 25.246442266221635, 305.53534906444787, 2291.248972286966,
    11593.145697118856, 40528.644708329055, 96095.06249165587,
    143091.47741832936, 105959.84712537941,
)
# Far tail, a > 8 sqrt(2): a + _K + a G(a) = a + Y(1/a^2)/a, Y of degree (4, 4).
_FAR = 8.0 * np.sqrt(2.0)
_Y_P = (
    509978341.43408513, 750720921.2923845, 142940484.89675984, 6085933.211233671,
    1.0000000004465168,
)
_Y_Q = (1409384572.6102445, 1000086336.5995898, 155112345.31662205, 6085935.211234615, 1.0)
# Small arguments, a < 0.7: erf(z) = a (sqrt(2/pi) + a^2 T(a^2)), T of degree
# (4, 3).  Above 0.7, erf = 1 - erfc >= 0.51 loses no relative accuracy.
_SMALL = 0.7
_T_P = (
    -1.9653002070800805e-07, 9.71046605410752e-06, -0.00043486939137346944,
    -0.0023057015988899045, -0.1329807601338109,
)
_T_Q = (0.0002519725204164428, 0.010513816448632881, 0.16733861046192142, 1.0)
# exp(-a^2/2) is zero in doubles above this; arguments are clamped to it.
_A_MAX = 40.0

# ndtri.  With q = u - 1/2 and |q| <= 0.425, x = q (sqrt(2 pi) + q^2 W0(r)),
# r = 0.180625 - q^2, W0 of degree (7, 7).  Otherwise, with
# r = sqrt(-log(min(u, 1 - u))), |x| = r (V + t W(t)): for r <= 5 at
# t = r - 1.6 and V = _V16, above at t = r - 5 and V = _V5, each W of
# degree (7, 7).
_W0_P = (
    572.2817585138039, 36707.42911028394, 86216.25707992338, 62219.112877711144,
    19112.426414214635, 2787.2317271818215, 190.1716798442275, 4.874765941399952,
)
_W0_Q = (
    19939.30994719698, 67881.33228128224, 69798.74521585205, 31080.55574986658,
    6886.185908202483, 791.5768244177461, 45.0357661938401, 1.0,
)
_V16 = 0.8896481942185522
_W1_P = (
    -8.057730881763816e-10, 0.00017528208486326935, 0.005153304040118255,
    0.05328820744345322, 0.2631862998261752, 0.6854353621233306, 0.9237422371987167,
    0.5113128094383138,
)
_W1_Q = (
    0.00033400813359295143, 0.009834569011847755, 0.10398863278477388,
    0.5484419261848327, 1.628572644415578, 2.789826216717181, 2.5820383542595926, 1.0,
)
_V5 = 1.3315809287002207
_W2_P = (
    -4.521705844027741e-16, 2.0379000702335597e-09, 2.8238380078177725e-07,
    1.3142325537549471e-05, 0.0002774329522057633, 0.002898723519629124,
    0.01452785078282455, 0.02771566982278999,
)
_W2_Q = (
    2.465960820030666e-08, 3.4183339739300573e-06, 0.0001605096529469153,
    0.0035068162394927952, 0.04015373172681225, 0.2484763845658308,
    0.7868715289682768, 1.0,
)


def _poly(t: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule on an array, in place on one fresh accumulator.  The
    kernels here cost about one microsecond per numpy call on a few thousand
    elements, so they count calls: in-place updates, and no multiplication
    by a leading coefficient of 1."""
    if coef[0] == 1.0:
        acc = t + coef[1]
    else:
        acc = t * coef[0]
        acc += coef[1]
    for c in coef[2:]:
        acc *= t
        acc += c
    return acc


def _ratio(t: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    acc = _poly(t, num)
    acc /= _poly(t, den)
    return acc


def _exp_half_sq(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(E, r)`` with ``exp(-a^2/2) = E exp(-r)``, ``r`` of the order of a
    rounding error of ``a^2/2``, for ``0 <= a <= _A_MAX``.

    ``a^2/2`` rounded to a double is off by up to half an ulp of a number near
    800, which ``exp`` would turn into a relative error of about 700 ulp.  So
    ``a`` is split into ``h``, rounded to 24 bits (a float32) so that its
    half square is exact, and ``l = a - h``: ``-a^2/2 = -h^2/2 + d`` with
    ``d = -l (h + l/2)``, below ``2^-23 a^2``.  The sum ``s`` of the two is
    rounded once, its rounding error ``r`` is exact (Dekker's fast two-sum),
    and ``E = exp(s)``.  Cephes' ``expx2`` splits the same way at multiples
    of 1/128."""
    h = a.astype(np.float32).astype(np.float64)
    lo = a - h
    d = np.multiply(lo, -0.5)
    d -= h
    d *= lo
    h *= h
    h *= -0.5
    s = h + d
    r = np.subtract(s, h, out=lo)
    r -= d
    np.exp(s, out=s)
    return s, r


def _far(a: np.ndarray) -> bool:
    """Whether the flat array ``a >= 0`` reaches the far tail; if so, it is
    clamped in place to ``_A_MAX``, as is an infinite value (NaN stays)."""
    far = bool(a.size) and np.fmax.reduce(a) > _FAR
    if far:
        np.minimum(a, _A_MAX, out=a)
    return far


def _normal_tail(a: np.ndarray, E: np.ndarray, r: np.ndarray, far: bool) -> np.ndarray:
    """``Phi(-a) = erfc(a/sqrt(2))/2`` for ``0 <= a <= _A_MAX``, given
    ``exp(-a^2/2) = E exp(-r)`` and ``far = _far(a)``.

    The denominator is ``(a + _K) + a G(a)``.  The factor ``exp(-r)``, that
    is ``1 - r``, divides it as ``1 + r``: its share ``(a + _K + a G) r`` is
    added to the correction ``a G`` before the last sum, where it costs no
    rounding of its own."""
    den = _ratio(a, _G_P, _G_Q)
    den *= a
    ak = a + _K
    corr = ak + den
    corr *= r
    den += corr
    den += ak
    np.divide(0.5 * _K, den, out=den)
    den *= E
    if far:
        rows = a > _FAR
        af = a[rows]
        ya = _ratio(1.0 / (af * af), _Y_P, _Y_Q)
        ya /= af
        ya += (af + ya) * r[rows]
        den[rows] = E[rows] * (0.5 * _K / (af + ya))
    return den


def _erf_pair(a: np.ndarray, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(erf(z), erfc(z))`` at ``z = a/sqrt(2)`` for the flat array ``a >= 0``,
    given ``E = exp(-a^2/2) = exp(-z^2)``; each to full relative accuracy."""
    erfc = _normal_tail(a, E, np.zeros_like(a), _far(a))
    erfc *= 2.0
    erf = 1.0 - erfc
    small = a < _SMALL
    if small.any():
        s = a[small]
        s2 = s * s
        erf[small] = s * (_K + (_K_LO + s2 * _ratio(s2, _T_P, _T_Q)))
    return erf, erfc


def ndtr_pair(x) -> tuple[np.ndarray, np.ndarray]:
    """``(Phi(x), Phi(-x))``, the standard normal cdf and upper tail.

    Both come from one evaluation of the smaller tail ``Phi(-|x|)``, the
    other as its complement, so ``ndtr_pair(x)[1] == ndtr_pair(-x)[0]``
    exactly."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x).reshape(-1)
    far = _far(a)
    small = _normal_tail(a, *_exp_half_sq(a), far).reshape(x.shape)
    big = np.subtract(1.0, small, out=a.reshape(x.shape))
    neg = x < 0.0
    return np.where(neg, small, big), np.where(neg, big, small)


def gammainc_half_pair(v) -> tuple[np.ndarray, np.ndarray]:
    """``(P(1/2, v), Q(1/2, v)) = (erf(sqrt v), erfc(sqrt v))`` for ``v >= 0``:
    the regularized incomplete gamma functions at ``a = 1/2``, that is the
    cdf and the upper tail of a chi-square(1) variable at ``2 v``."""
    v = np.asarray(v, dtype=float)
    erf, erfc = _erf_pair(np.sqrt(2.0 * v).reshape(-1), np.exp(-v).reshape(-1))
    return erf.reshape(v.shape), erfc.reshape(v.shape)


def expit_pair(x) -> tuple[np.ndarray, np.ndarray]:
    """``(expit(x), expit(-x))``, the logistic cdf and upper tail, from one
    ``exp(-|x|)``, which never overflows."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    big = 1.0 / (1.0 + e)
    small = e * big
    neg = x < 0.0
    return np.where(neg, small, big), np.where(neg, big, small)


def logit(u) -> np.ndarray:
    """``log(u / (1 - u))``; ``-inf`` at 0, ``inf`` at 1, NaN outside [0, 1].

    Near ``u = 1/2`` it is ``log1p((2u - 1)/(1 - u))``, where ``2u - 1`` and
    ``1 - u`` are exact."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = np.log1p((2.0 * u - 1.0) / (1.0 - u))
        out = np.log(u / (1.0 - u))
    return np.where(np.abs(u - 0.5) < 0.25, mid, out)


def ndtri(u) -> np.ndarray:
    """Standard normal quantile ``Phi^{-1}(u)``; ``-inf`` at 0, ``inf`` at 1,
    NaN outside [0, 1]."""
    shape = np.shape(u)
    u = np.asarray(u, dtype=float).reshape(-1)
    q = u - 0.5
    s = q * q
    out = _ratio(0.180625 - s, _W0_P, _W0_Q)
    out *= s
    out += _C2PI_LO
    out += _C2PI
    out *= q
    tail = ~(np.abs(q) <= 0.425)
    if tail.any():
        ut = u[tail]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(-np.log(np.minimum(ut, 1.0 - ut)))
            mid = r <= 5.0
            x = np.empty_like(r)
            for rows, shift, lead, num, den in (
                (mid, 1.6, _V16, _W1_P, _W1_Q), (~mid, 5.0, _V5, _W2_P, _W2_Q)
            ):
                t = r[rows] - shift
                x[rows] = r[rows] * (lead + t * _ratio(t, num, den))
        x[r == np.inf] = np.inf
        out[tail] = np.where(ut < 0.5, -x, x)
    return out.reshape(shape)
