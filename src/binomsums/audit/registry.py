"""The identity registry.

Each entry evaluates the *printed* form of an identity exactly over a
parameter grid, together with a *corrected* form where the printed
statement contains a misprint.  The expected verdict is pinned so
regressions in either direction are caught.

Declaring an entry: decorate a module-level evaluator with
``@_identity(id, expected, grid, singular=...)``.  The evaluator takes the
grid point as keyword parameters (``def _chu(n)``) and returns
``(lhs, rhs)``; lists and tuples compare elementwise.  Its docstring, with
runs of whitespace collapsed to one space, is the entry's ``paper_ref``.
An entry pinned ``HOLDS_CORRECTED_ONLY`` has a keyword-only ``corrected``
flag: the evaluator returns the printed form when it is false and the
corrected form when it is true, and the registry binds ``printed`` and
``corrected`` to the two.  ``singular`` also takes the point as keywords
and returns a skip reason or None.  Entries are registered in source
order, which is the order of ``audit list`` and of the report.

Independence: where an identity compares two routes to one value, the two
sides stay independent code paths, and no entry evaluates one routine on
both sides; a shared bug would otherwise cancel and the audit would prove
nothing.  Each sum has one kernel, and an entry reaches it through the
library: ``CC2`` sets ``bnk``'s integer loop against ``y6`` (through
``y1``), ``Cab3`` the series route against ``y6``, and ``golombek`` and
``altStirling`` take ``bnk``, ``moment`` and ``franel`` against the series,
the closed forms and S(n,k).  ``changhee_theorem`` keeps its own
``Fraction`` sum of s(n,k) E_k(0) on purpose: ``legendre_P0`` checks the
same identity through ``classic_sequence``'s integer sum, so a fault in
that sum fails one entry and not the other.  ``_binom_sum`` sums
C(n,j)^p lam^j g(j) directly and calls none of ``y6``, ``p_poly``,
``raw_sum_poly`` or ``r_poly``, the routes it is compared with.  At p = 0
it also gives the left sides of the four power-sum entries (through
``_power_sum``), against Bernoulli, Euler, Apostol-Bernoulli and
Frobenius-Euler closed forms that never call it;
``test_faulty_binom_sum_flips_its_consumers`` shows that a fault in it is
not cancelled.  A ``Poly`` g reaches it through ``exact_core._int_values``,
which also gives the Mahler values of ``volkenborn`` and ``fermionic`` in
``inP3_4``/``inP5_6``; ``test_faulty_int_values_flips_the_moment_entries``
shows that a fault there is not cancelled.  ``p_poly`` sums its own integer
coefficients and does not call ``y6``, so ``py6ab``, ``inP1`` and
``P1_corollary``, which set the polynomial family against ``y6`` values
(through ``_y6_sum``), compare independent routes.

Speed: the sums over the large grids are taken as integers over one common
denominator and divided once, not by adding a ``Fraction`` per term:
``_binom_sum``, ``_y6_sum`` and the right side of ``py6ab``.  Each caller
of ``_binom_sum`` folds its outer divisor into the one denominator of its
values; ``_y6_sum`` and ``py6ab`` sum the kernel's integers n! b^n y6 and
divide once.  An entry over a lam grid splits lam = a/b once per point
and passes a and b to ``_binom_sum``, ``_y6_sum`` and the memoized kernels
``_y6`` and ``_p_poly``, whose lookups hash no ``Fraction``.  What a side
computes independently of lam is a table, built by ``_table(build,
*ints)`` once per int key and entry evaluation rather than once per grid
point: the inner sums of ``sec6_stirling`` and ``inP8a``, the inner
polynomials of ``sec6_bernoulli``/``sec6_euler`` (one ``Poly`` each) and
B_m or E_m at 0..n for ``inP3_4``/``inP5_6``, all as integers over one
denominator, and (x d/dx)^m r_poly(n,p) for ``yp3_euler_operator``.  Each
table belongs to one side of its identity.  ``inP8``'s corrected form,
which depends on m alone, compares its term identity cross-multiplied in
integers.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb, factorial, lcm
from typing import Any, Callable, Iterator, Optional

from ..classic_numbers import (
    apostol_bernoulli,
    bernoulli_poly,
    bernoulli_poly_order,
    classic_sequence,
    euler_number0,
    euler_poly,
    euler_poly_order,
    frobenius_euler,
    legendre,
    stirling1,
    stirling2,
    y_seq,
    FamilyTag,
)
from ..exact_core import (
    EgfSeries,
    Poly,
    _int_values,
    _ratio,
    pochhammer,
    poly_integral01,
)
from ..hypergeom import (
    OgfCase,
    alternating_square_gamma,
    ogf_reference,
    ogf_series,
    y6_hyper,
)
from ..p_polynomials import (
    _p_poly,
    euler_operator,
    fermionic,
    mirimanoff_frobenius_sum,
    power_sum_closed,
    r_poly,
    raw_sum_poly,
    volkenborn,
    vowe,
)
from ..y6_engine import (
    _y6, _y6_value, b_ogf, bnk, franel, moment, t_poly, y1, y6, y6_egf
)
from .config import GridSpec

__all__ = ["Verdict", "IdentityEntry", "build_registry"]

Grid = Callable[[GridSpec], Iterator[dict]]


class Verdict(Enum):
    HOLDS_PRINTED = "HOLDS_PRINTED"
    HOLDS_CORRECTED_ONLY = "HOLDS_CORRECTED_ONLY"
    FAILS_BOTH = "FAILS_BOTH"


def _never_singular(**pt) -> None:
    """The default ``singular``: no grid point is skipped.  The runner
    recognises it by identity and then calls no filter at all."""
    return None


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    paper_ref: str
    expected: Verdict
    printed: Callable[..., tuple[Any, Any]]
    grid: Grid
    corrected: Optional[Callable[..., tuple[Any, Any]]] = None
    singular: Callable[..., Optional[str]] = _never_singular

    def __post_init__(self):
        if self.expected is Verdict.HOLDS_CORRECTED_ONLY and self.corrected is None:
            raise ValueError(f"{self.id}: corrected form required")


_ENTRIES: list[IdentityEntry] = []


def _identity(
    entry_id: str,
    expected: Verdict,
    grid: Grid,
    singular: Callable[..., Optional[str]] = _never_singular,
):
    """Register the decorated evaluator as entry ``entry_id``."""

    def register(fn):
        if any(e.id == entry_id for e in _ENTRIES):
            raise RuntimeError(f"duplicate registry id {entry_id!r}")
        printed, corrected = fn, None
        if expected is Verdict.HOLDS_CORRECTED_ONLY:
            printed = partial(fn, corrected=False)
            corrected = partial(fn, corrected=True)
        _ENTRIES.append(
            IdentityEntry(
                id=entry_id,
                paper_ref=" ".join(fn.__doc__.split()),
                expected=expected,
                printed=printed,
                grid=grid,
                corrected=corrected,
                singular=singular,
            )
        )
        return fn

    return register


def build_registry() -> list[IdentityEntry]:
    return list(_ENTRIES)


# ---------------------------------------------------------------------------
# grids and shared sums

F1 = Fraction(1)
FM1 = Fraction(-1)


def _grid(
    *use: str,
    m_min: int = 0,
    n_min: int = 0,
    p_min: int = 0,
    m_cap: int | None = None,
    n_cap: int | None = None,
    p_cap: int | None = None,
    lams: tuple[Fraction, ...] | None = None,
) -> Grid:
    """Cartesian grid over the named parameters, taken in the order
    m, n, p, lam and bounded by the GridSpec and optional per-entry caps."""

    def points(spec: GridSpec) -> Iterator[dict]:
        axes = {
            "m": range(m_min, _capped(spec.m_max, m_cap) + 1),
            "n": range(n_min, _capped(spec.n_max, n_cap) + 1),
            "p": range(p_min, _capped(spec.p_max, p_cap) + 1),
            "lam": spec.lambdas if lams is None else lams,
        }
        names = [name for name in axes if name in use]
        for values in product(*(axes[name] for name in names)):
            yield dict(zip(names, values))

    return points


def _capped(limit: int, cap: int | None) -> int:
    return limit if cap is None else min(limit, cap)


def _fixed(points: list[dict]) -> Grid:
    return lambda spec: iter(points)


def _ns(*bounds: int) -> Grid:
    return _fixed([{"n": n} for n in range(*bounds)])


# the polynomial family's grid, shared by its integral representations
_MNPL = _grid("m", "n", "p", "lam", p_cap=3)
_MN8 = _grid("m", "n", m_cap=8, n_cap=8)
_MN10 = _grid("m", "n", m_cap=10, n_cap=10)
_POWER_SUM = _grid("m", "n", m_min=1, n_min=1, n_cap=12)
_SEC6 = _grid(
    "m", "n", "p", "lam", m_cap=5, n_cap=5, p_cap=2, lams=(FM1, F1, Fraction(2))
)
_DK = _fixed([{"d": d, "k": k} for d in range(1, 7) for k in range(13)])
_N11 = _ns(11)
_N13 = _ns(13)
_NO_PARAMETERS = _fixed([{}])


# the tables of the entry evaluation under way; None outside one
_TABLES: Optional[dict[tuple, Any]] = None


@contextmanager
def _tables() -> Iterator[None]:
    """Memoize ``_table`` inside the block, which ``runner.evaluate_entry``
    puts round each entry, and nowhere else."""
    global _TABLES
    _TABLES = {}
    try:
        yield
    finally:
        _TABLES = None


def _table(build: Callable[..., Any], *key: int) -> Any:
    """``build(*key)``, built at most once per entry evaluation.

    A table is the lam-invariant part of one side of an identity, keyed
    only on ints.  Inside ``_tables()`` it is kept in ``_TABLES``, keyed on
    (build, *key), until the block ends; outside, as when a test calls an
    evaluator directly, it is built afresh on every call.  So no table
    outlives one evaluation, and a kernel patched before the call is
    always read."""
    if _TABLES is None:
        return build(*key)
    k = (build, *key)
    value = _TABLES.get(k)
    if value is None:
        value = _TABLES[k] = build(*key)
    return value


def _binom_sum(n: int, p: int, a: int, b: int, values: list[int], den: int) -> Fraction:
    """sum_{j=0}^{n} C(n,j)^p lam^j g(j) for lam = a/b, as ``_ratio`` gives
    it, and g(j) = values[j]/den.

    The caller gives the integer numerators of g(0..n) over one
    denominator, into which it folds any outer divisor of the sum.  The
    integer sum_j C(n,j)^p a^j b^(n-j) values[j] is summed by Horner in b
    and divided once by den b^n; n = -1, with no values, is the empty
    sum 0."""
    total = 0
    c = a_j = 1
    for j, u in enumerate(values):
        total = total * b + c**p * a_j * u
        c = c * (n - j) // (j + 1)
        a_j *= a
    return Fraction(total, den * b ** max(n, 0))


def _y6_sum(n: int, p: int, a: int, b: int, weights: list[tuple[int, int]]) -> Fraction:
    """sum_k (c_k/d_k) y6(k,n;a/b,p) over the pairs weights[k] = (c_k, d_k),
    summed as integers over L = lcm(d_k) and divided once by L n! b^n."""
    den = lcm(*[d for _, d in weights])
    total = sum(c * (den // d) * _y6(k, n, a, b, p) for k, (c, d) in enumerate(weights))
    return Fraction(total, den * factorial(n) * b**n)


def _coefficient_integral(m: int, n: int, p: int, a: int, b: int) -> Fraction:
    """Integral over [0,1] of the polynomial family, term by term from its
    y6 coefficients: sum_k C(m,k) y6(k,n;a/b,p)/(m-k+1)."""
    return _y6_sum(n, p, a, b, [(comb(m, k), m - k + 1) for k in range(m + 1)])


def _riemann_sum(m: int, n: int, p: int, a: int, b: int, corrected: bool) -> Fraction:
    """Summation form of the Riemann integral; the printed form drops the
    1/n! and the +1 in the exponent."""
    e = m + 1 if corrected else m
    values = [(j + 1) ** e - j**e for j in range(n + 1)]
    return _binom_sum(n, p, a, b, values, (m + 1) * (factorial(n) if corrected else 1))


def lagrange_poly(points: list[tuple[Fraction, Fraction]]) -> Poly:
    """Interpolating polynomial through distinct-abscissa points."""
    acc = Poly()
    for i, (xi, yi) in enumerate(points):
        term = Poly([yi])
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * Poly([-xj, 1]) / (xi - xj)
        acc = acc + term
    return acc


def _power_sum(m: int, upper: int, lam: Fraction, x0: Fraction = Fraction(0)) -> Fraction:
    """Brute-force sum_{j=0}^{upper-1} lam^j (x0+j)^m with 0^0 = 1: the
    p = 0 member of ``_binom_sum``, with values (c+jd)^m over d^m for
    x0 = c/d."""
    c, d = x0.numerator, x0.denominator
    values = [(c + j * d) ** m for j in range(upper)]
    return _binom_sum(upper - 1, 0, *_ratio(lam), values, d**m)


# ---------------------------------------------------------------------------
# B(n,k) = sum_j C(k,j) j^n and the Stirling numbers


def _golombek_grid(spec: GridSpec) -> Iterator[dict]:
    for d in range(1, min(4, spec.m_max + 1)):
        for k in range(0, min(12, max(spec.n_max, 8)) + 1):
            yield {"d": d, "k": k}
    for m in range(0, 4):
        for n in range(2, min(10, max(spec.n_max, 4)) + 1):
            yield {"m": m, "n": n}


@_identity("golombek", Verdict.HOLDS_PRINTED, _golombek_grid)
def _golombek(d=None, k=None, m=None, n=None):
    """B(n,k) sum vs derivative of (e^t+1)^k; closed sequences
    (k=0 term subtracted explicitly where the source sums from 1)"""
    if d is not None:
        rhs = EgfSeries([1] + [0] * d) + EgfSeries.exp(1, d)
        return bnk(d, k), rhs.pow(k).coeffs[d]
    # second sequence family: sums from k=1 of squared binomials
    lhs = moment(m, 2, n) - 0**m
    closed = {
        0: Fraction(comb(2 * n, n) - 1),
        1: Fraction(n * comb(2 * n - 1, n)),
        2: Fraction(n**2 * comb(2 * n - 2, n - 1)),
        3: Fraction(n**2 * (n + 1) * comb(2 * n - 3, n - 1)),
    }[m]
    return lhs, closed


@_identity("CC2", Verdict.HOLDS_PRINTED, _grid("m", "n"))
def _cc2(m, n):
    """B(n,k) = k! y1(n,k;1)"""
    return bnk(m, n), factorial(n) * y1(m, n, F1)


@_identity("Bs1", Verdict.HOLDS_PRINTED, _MN10)
def _bs1(m, n):
    """B(m,n) as a Stirling-weighted sum: sum_j C(n,j) j! 2^(n-j) S(m,j)"""
    rhs = sum(
        comb(n, j) * factorial(j) * 2 ** (n - j) * stirling2(m, j)
        for j in range(m + 1)
    )
    return bnk(m, n), rhs


@_identity("boyadzhiev", Verdict.HOLDS_PRINTED, _MN8)
def _boyadzhiev(m, n):
    """sum_j C(k,j) j^n x^j = sum_j C(k,j) j! S(n,j) x^j (1+x)^(k-j),
    polynomial identity in x"""
    # the paper's power n is the grid's m and its row k is the grid's n
    lhs = Poly([comb(n, j) * j**m for j in range(n + 1)])
    rhs = Poly()
    for j in range(min(m, n) + 1):
        rhs = rhs + (
            comb(n, j)
            * factorial(j)
            * stirling2(m, j)
            * Poly.monomial(j)
            * Poly([1, 1]) ** (n - j)
        )
    return lhs, rhs


@_identity("altStirling", Verdict.HOLDS_PRINTED, _MN10)
def _alt_stirling(m, n):
    """sum_j (-1)^j C(k,j) j^n = (-1)^k k! S(n,k)"""
    return franel(1, m, n, FM1), (-1) ** n * factorial(n) * stirling2(m, n)


@_identity("CB1_xu", Verdict.HOLDS_PRINTED, _DK)
def _cb1_xu(d, k):
    """recurrence sum_v m_v B(d-v,k) = 2^(k-d) C(k,d) with m_v = s(d,d-v)/d!"""
    lhs = sum(stirling1(d, d - v) / factorial(d) * bnk(d - v, k) for v in range(d))
    return lhs, Fraction(2) ** (k - d) * comb(k, d)


@_identity("tpoly", Verdict.HOLDS_PRINTED, _DK)
def _tpoly(d, k):
    """B(d,k) = 2^(k-d) T_d(k)"""
    return bnk(d, k), Fraction(2) ** (k - d) * t_poly(d)(k)


@_identity("xu_x", Verdict.HOLDS_PRINTED, _fixed([{"d": d} for d in range(1, 7)]))
def _xu_x(d):
    """T_d coefficients x_(d-l) = sum_j s(j,l) S(d,j) 2^(d-j)"""
    # coefficients from the Stirling formula vs interpolation of the
    # scaled values 2^(d-k) B(d,k)
    pts = [(Fraction(k), Fraction(2) ** (d - k) * bnk(d, k)) for k in range(d + 1)]
    return t_poly(d), lagrange_poly(pts)


@_identity("fd_ogf", Verdict.HOLDS_PRINTED, _fixed([{"d": d} for d in range(7)]))
def _fd_ogf(d):
    """ordinary generating function of k -> B(d,k):
    sum_j j! S(d,j) x^j/(1-2x)^(j+1)"""
    return b_ogf(d).series(12), [bnk(d, k) for k in range(13)]


@_identity(
    "Cab3",
    Verdict.HOLDS_PRINTED,
    _grid("m", "n", "lam", m_cap=8, n_cap=8, lams=(F1, Fraction(2), FM1)),
)
def _cab3(m, n, lam):
    """negative-order Apostol-Euler numbers:
    E_n^(-k)(lam) = k! 2^(-k) y1(n,k;lam)"""
    # the paper's index n is the grid's m and its order k is the grid's n
    series = EgfSeries([1] + [0] * m) + EgfSeries.exp(1, m).scale(lam)
    lhs = series.scale(Fraction(1, 2)).pow(n).coeffs[m]
    return lhs, factorial(n) * Fraction(1, 2**n) * y1(m, n, lam)


@_identity("Caa3", Verdict.HOLDS_PRINTED, _MN8)
def _caa3(m, n):
    """E_n^(-k) = 2^(-k) B(n,k)"""
    return euler_poly_order(m, -n)(0), Fraction(1, 2**n) * bnk(m, n)


# ---------------------------------------------------------------------------
# y6 and its slices: Franel, Catalan, Daehee, Changhee, Legendre


@_identity("y6G", Verdict.HOLDS_PRINTED, _grid("n", "p", "lam"))
def _y6g(n, p, lam):
    """EGF coefficients = m-th derivatives at 0"""
    order = 12
    series = y6_egf(n, lam, p, order)
    a, b = _ratio(lam)
    ys = [_y6_value(m, n, a, b, p) for m in range(order + 1)]
    return list(series.coeffs), ys


@_identity("y6bb", Verdict.HOLDS_PRINTED, _grid("n", "p", "lam", n_cap=10, p_min=1))
def _y6bb(n, p, lam):
    """hypergeometric form: p copies of -n over p-1 ones, argument (-1)^p lam"""
    return y6_hyper(n, lam, p), y6(0, n, lam, p)


@_identity("chu", Verdict.HOLDS_PRINTED, _ns(21))
def _chu(n):
    """Chu-Vandermonde: sum_k C(n,k)^2 = C(2n,n)"""
    return moment(0, 2, n), Fraction(comb(2 * n, n))


@_identity("dixon", Verdict.HOLDS_PRINTED, _ns(7))
def _dixon(n):
    """Dixon special case: alternating cubes over an even row"""
    closed = Fraction((-1) ** n * factorial(3 * n), factorial(n) ** 3)
    return franel(3, 0, 2 * n, FM1), closed


@_identity("cusick_sym", Verdict.HOLDS_PRINTED, _grid("m", "n", "p", m_cap=8, n_cap=8))
def _cusick_sym(m, n, p):
    """symmetry recurrence S_(n,m) = sum_k (-1)^k C(m,k)
    n^(m-k) S_(n,k)"""
    rhs = sum(
        (-1) ** k * comb(m, k) * n ** (m - k) * franel(p, k, n, F1)
        for k in range(m + 1)
    )
    return franel(p, m, n, F1), rhs


@_identity(
    "cusick_diag", Verdict.FAILS_BOTH, _grid("n", "p", n_min=1, p_min=1, n_cap=6)
)
def _cusick_diag(n, p):
    """printed diagonal claim S_(n,p) = n^p S_(n,0); fails
    as printed, no corrected form asserted"""
    return franel(p, p, n, F1), n**p * franel(p, 0, n, F1)


def _franel_numbers(p: int, values: tuple[int, ...], n: int):
    """The p-th order Franel number against a table and its pFq form."""
    v = franel(p, 0, n, F1)
    return (v, v), (Fraction(values[n]), factorial(n) * y6_hyper(n, F1, p))


@_identity("franel3", Verdict.HOLDS_PRINTED, _ns(5))
def _franel3(n):
    """classical Franel numbers and their 3F2 form"""
    return _franel_numbers(3, (1, 2, 10, 56, 346), n)


@_identity("franel4", Verdict.HOLDS_PRINTED, _ns(5))
def _franel4(n):
    """fourth-order Franel numbers and their 4F3 form"""
    return _franel_numbers(4, (1, 2, 18, 164, 1810), n)


@_identity("AWolf", Verdict.HOLDS_PRINTED, _ns(17))
def _awolf(n):
    """alternating squares: gamma closed form (1/Gamma(pole)=0)
    and the even/odd piecewise form"""
    v = franel(2, 0, n, FM1)
    if n % 2:
        piecewise = Fraction(0)
    else:
        h = n // 2
        piecewise = Fraction((-1) ** h * factorial(n), factorial(h) ** 2)
    return (v, v), (alternating_square_gamma(n), piecewise)


@_identity("alt3", Verdict.HOLDS_PRINTED, _N13)
def _alt3(n):
    """alternating cubes: even/odd piecewise closed form"""
    if n % 2:
        piecewise = Fraction(0)
    else:
        h = n // 2
        piecewise = Fraction((-1) ** h * factorial(3 * h), factorial(h) ** 3)
    return franel(3, 0, n, FM1), piecewise


@_identity("catalan_CN", Verdict.HOLDS_PRINTED, _N13)
def _catalan_cn(n):
    """Catalan/Daehee chain: y = (-1)^n C_n/D_n and
    C_n = (-1)^n y sum_k B_k s(n,k)"""
    cn = classic_sequence(FamilyTag.CATALAN, n)
    dn = classic_sequence(FamilyTag.DAEHEE, n)
    v = y6(0, n, F1, 2)
    return (v, cn), ((-1) ** n * cn / dn, (-1) ** n * v * dn)


@_identity("legendre_P0", Verdict.HOLDS_PRINTED, _N11)
def _legendre_p0(n):
    """Legendre at 0 via the alternating square slice and
    the Changhee numbers"""
    v = legendre(n)(0)
    y = y6(0, n, FM1, 2)
    rhs = (
        Fraction((-1) ** n * factorial(n), 2**n) * y,
        classic_sequence(FamilyTag.CHANGHEE, n) * y,
    )
    return (v, v), rhs


@_identity("legendre_P2", Verdict.HOLDS_PRINTED, _N11)
def _legendre_p2(n):
    """Legendre at 2 via the lam=3 square slice and Y_n(-1)"""
    v = legendre(n)(2)
    y = y6(0, n, Fraction(3), 2)
    return (v, v), (Fraction(factorial(n), 2**n) * y, -y_seq(n, FM1) * y)


@_identity("changhee_theorem", Verdict.HOLDS_PRINTED, _N11)
def _changhee_theorem(n):
    """P_n(0) = y6-slice times sum_k s(n,k) E_k(0)"""
    euler_sum = sum(stirling1(n, k) * euler_number0(k) for k in range(n + 1))
    return legendre(n)(0), y6(0, n, FM1, 2) * euler_sum


# ---------------------------------------------------------------------------
# the polynomial family P(x;m,n;lam,p) and its integral representations


@_identity("Yp1Yp2_bridge", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _yp1yp2_bridge(m, n, p, lam, *, corrected):
    """the two defining forms of the polynomial family; the
    printed pair omits the 1/n!"""
    lhs = _p_poly(m, n, *_ratio(lam), p)
    if corrected:
        lhs = factorial(n) * lhs
    return lhs, raw_sum_poly(m, n, lam, p)


@_identity(
    "py6a",
    Verdict.HOLDS_CORRECTED_ONLY,
    _grid("m", "n", "p", "lam", m_min=1, p_cap=3),
)
def _py6a(m, n, p, lam, *, corrected):
    """k-fold x-derivative; printed uses the falling factorial
    of n, the derivation forces the falling factorial of m"""
    top = m if corrected else n
    a, b = _ratio(lam)
    d = _p_poly(m, n, a, b, p)
    lhs, rhs = [], []
    fall = 1
    for k in range(1, m + 1):
        d = d.derivative()
        lhs.append(d)
        fall *= top - k + 1
        rhs.append(fall * _p_poly(m - k, n, a, b, p))
    return lhs, rhs


@_identity("py6ab", Verdict.HOLDS_PRINTED, _MNPL)
def _py6ab(m, n, p, lam):
    """t-derivative recurrence for the polynomial family"""
    a, b = _ratio(lam)
    lhs = _p_poly(m + 1, n, a, b, p) - Poly.x() * _p_poly(m, n, a, b, p)
    # coefficients C(m,i) y6(m-i+1,n;lam,p), as integers over n! b^n
    ys = [comb(m, i) * _y6(m - i + 1, n, a, b, p) for i in range(m + 1)]
    rhs = Poly.from_ints(ys, factorial(n) * b**n)
    return lhs, rhs


@_identity("inP1", Verdict.HOLDS_PRINTED, _MNPL)
def _inp1(m, n, p, lam):
    """Riemann integral over [0,1], coefficient form"""
    a, b = _ratio(lam)
    lhs = poly_integral01(_p_poly(m, n, a, b, p))
    return lhs, _coefficient_integral(m, n, p, a, b)


@_identity("inP2", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _inp2(m, n, p, lam, *, corrected):
    """Riemann integral, summation form; printed drops both
    the 1/n! and the +1 in the exponent"""
    a, b = _ratio(lam)
    lhs = poly_integral01(_p_poly(m, n, a, b, p))
    return lhs, _riemann_sum(m, n, p, a, b, corrected)


@_identity("inP8", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _inp8(m, n, p, lam, *, corrected):
    """equating the two integral forms; the corrected content
    is the term identity C(m+1,l)/(m+1) = C(m,l)/(m-l+1)"""
    if corrected:
        # cross-multiplied: C(m+1,l) (m-l+1) = C(m,l) (m+1)
        return (
            [comb(m + 1, l) * (m - l + 1) for l in range(m + 1)],
            [comb(m, l) * (m + 1) for l in range(m + 1)],
        )
    a, b = _ratio(lam)
    lhs = _coefficient_integral(m, n, p, a, b)
    return lhs, _riemann_sum(m, n, p, a, b, corrected=False)


def _inp8a_values(top: int, n: int) -> list[int]:
    """inP8a's inner sums sum_{l<top} C(top,l) j^l for j = 0..n."""
    return [sum(comb(top, l) * j**l for l in range(top)) for j in range(n + 1)]


@_identity("inP8a", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _inp8a(m, n, p, lam, *, corrected):
    """expanded integral identity; corrected form restores the
    1/n! and the full inner sum with C(m+1,l)"""
    a, b = _ratio(lam)
    weights = [(comb(m, k) * (m + 1), m - k + 1) for k in range(m + 1)]
    lhs = _y6_sum(n, p, a, b, weights)
    # printed: sum_{l<m} C(m,l) j^l; corrected: sum_{l<=m} C(m+1,l) j^l
    values = _table(_inp8a_values, m + 1 if corrected else m, n)
    return lhs, _binom_sum(n, p, a, b, values, factorial(n) if corrected else 1)


@_identity("P1_corollary", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _p1_corollary(m, n, p, lam, *, corrected):
    """value at x=1; printed mixes normalizations and fails,
    the corrected statement is the x=1 evaluation of the
    coefficient form"""
    a, b = _ratio(lam)
    lhs = _p_poly(m, n, a, b, p)(1)
    if corrected:
        return lhs, _y6_sum(n, p, a, b, [(comb(m, k), 1) for k in range(m + 1)])
    rhs = Fraction(m + 1, factorial(n)) * _coefficient_integral(m, n, p, a, b)
    return lhs, rhs + _y6_value(m, n, a, b, p)


def _bernoulli_values(m: int, n: int) -> tuple[list[int], int]:
    """B_m(0..n) as integers over one denominator."""
    q = bernoulli_poly(m)
    return _int_values(q, n + 1), q.den


def _euler_values(m: int, n: int) -> tuple[list[int], int]:
    """E_m(0..n) as integers over one denominator."""
    q = euler_poly(m)
    return _int_values(q, n + 1), q.den


@_identity("inP3_4", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _inp3_4(m, n, p, lam, *, corrected):
    """Bernoulli-moment functional of the polynomial family; printed
    right side lacks the 1/n!"""
    a, b = _ratio(lam)
    lhs = volkenborn(_p_poly(m, n, a, b, p))
    values, den = _table(_bernoulli_values, m, n)
    return lhs, _binom_sum(n, p, a, b, values, den * factorial(n) if corrected else den)


@_identity("inP5_6", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _inp5_6(m, n, p, lam, *, corrected):
    """Euler-moment functional of the polynomial family; printed right
    side lacks the 1/n!"""
    a, b = _ratio(lam)
    lhs = fermionic(_p_poly(m, n, a, b, p))
    values, den = _table(_euler_values, m, n)
    return lhs, _binom_sum(n, p, a, b, values, den * factorial(n) if corrected else den)


# ---------------------------------------------------------------------------
# power sums


def _mirimanoff_grid(spec: GridSpec) -> Iterator[dict]:
    for m in range(min(spec.m_max, 6) + 1):
        for n in range(1, min(spec.n_max, 6) + 1):
            for x0 in (Fraction(0), Fraction(1), Fraction(1, 2)):
                for lam in spec.lambdas:
                    yield {"m": m, "n": n, "x0": x0, "lam": lam}


@_identity(
    "mirimanoff_frobenius",
    Verdict.HOLDS_CORRECTED_ONLY,
    _mirimanoff_grid,
    singular=lambda lam, **_: (
        "closed form undefined at u in {0, 1}" if lam in (0, 1) else None
    ),
)
def _mirimanoff_frobenius(m, n, x0, lam, *, corrected):
    """geometric power sum via Frobenius-Euler polynomials;
    printed repeats the shifted argument in both terms"""
    u = lam
    lhs = _power_sum(m, n, u, x0)
    if corrected:
        return lhs, mirimanoff_frobenius_sum(m, n, x0, u)
    h = frobenius_euler(m, 1 / u)
    return lhs, (u**n * h(x0 + n) - h(x0 + n)) / (u - 1)


@_identity(
    "apostol_powersum",
    Verdict.HOLDS_CORRECTED_ONLY,
    _grid("m", "n", "lam", m_min=1, n_min=1),
    singular=lambda lam, **_: (
        "Apostol-Bernoulli closed form undefined at lambda = 1" if lam == 1 else None
    ),
)
def _apostol_powersum(m, n, lam, *, corrected):
    """geometric power sum via Apostol-Bernoulli polynomials;
    printed exponent lam^m instead of lam^N"""
    lhs = _power_sum(m - 1, n, lam)
    if corrected:
        return lhs, power_sum_closed(m - 1, n, lam)
    a = apostol_bernoulli(m, lam)
    return lhs, (lam**m * a(n) - a(0)) / m


@_identity("faulhaber", Verdict.HOLDS_PRINTED, _POWER_SUM)
def _faulhaber(m, n):
    """classical power-sum formula via Bernoulli polynomials"""
    b = bernoulli_poly(m)
    return _power_sum(m - 1, n, F1), (b(n) - b(0)) / m


@_identity("alt_euler_sum", Verdict.HOLDS_CORRECTED_ONLY, _POWER_SUM)
def _alt_euler_sum(m, n, *, corrected):
    """alternating power sum via Euler polynomials; printed
    form has a sign slip and a degree off by one"""
    if corrected:
        return _power_sum(m, n, FM1), power_sum_closed(m, n, FM1)
    e = euler_poly(m)
    return _power_sum(m - 1, n, FM1), ((-1) ** (n - 1) * e(n) - e(0)) / 2


# ---------------------------------------------------------------------------
# y6 as Stirling, Bernoulli and Euler double sums


def _stirling_values(m: int, n: int) -> list[int]:
    """sec6_stirling's inner sums over n!, for k = 0..n:
    sum_l S(m,l)/((n-k)! (k-l)!) = C(n,k) sum_l S(m,l) k!/(k-l)! / n!,
    where the weights k!/(k-l)! are the falling factorials of k."""
    values = []
    for k in range(n + 1):
        total, fall = 0, 1
        for l in range(k + 1):
            total += stirling2(m, l).numerator * fall
            fall *= k - l
        values.append(comb(n, k) * total)
    return values


@_identity(
    "sec6_stirling",
    Verdict.HOLDS_PRINTED,
    _grid("m", "n", "p", "lam", p_min=1, p_cap=3),
)
def _sec6_stirling(m, n, p, lam):
    """double-sum expression through second-kind Stirling
    numbers and factorial weights"""
    a, b = _ratio(lam)
    values = _table(_stirling_values, m, n)
    return _y6_value(m, n, a, b, p), _binom_sum(n, p - 1, a, b, values, factorial(n))


def _sec6_bernoulli_values(m: int, n: int) -> tuple[list[int], int]:
    """sec6_bernoulli's inner sums at k = 0..n over one denominator, into
    which C(m+n,n) n! is folded.  The inner sum over v is one polynomial
    in the binomial index k; S(v,n) = 0 for v < n."""
    inner = sum(
        (
            comb(m + n, v)
            * stirling2(v, n).numerator
            * bernoulli_poly_order(m + n - v, n)
            for v in range(n, m + n + 1)
        ),
        Poly(),
    )
    return _int_values(inner, n + 1), inner.den * comb(m + n, n) * factorial(n)


@_identity("sec6_bernoulli", Verdict.HOLDS_PRINTED, _SEC6)
def _sec6_bernoulli(m, n, p, lam):
    """double-sum expression through order-n Bernoulli
    polynomials; the dangling summation symbol is bound to
    the binomial index"""
    a, b = _ratio(lam)
    values, den = _table(_sec6_bernoulli_values, m, n)
    return _y6_value(m, n, a, b, p), _binom_sum(n, p, a, b, values, den)


def _sec6_euler_values(m: int, n: int) -> tuple[list[int], int]:
    """sec6_euler's inner sums at k = 0..n over one denominator, into
    which n! 2^n is folded."""
    inner = sum(
        (
            comb(m, v) * bnk(v, n).numerator * euler_poly_order(m - v, n)
            for v in range(m + 1)
        ),
        Poly(),
    )
    return _int_values(inner, n + 1), inner.den * factorial(n) * 2**n


@_identity("sec6_euler", Verdict.HOLDS_PRINTED, _SEC6)
def _sec6_euler(m, n, p, lam):
    """double-sum expression through order-n Euler polynomials
    and the B(v,n) weights; dangling index bound as above"""
    a, b = _ratio(lam)
    values, den = _table(_sec6_euler_values, m, n)
    return _y6_value(m, n, a, b, p), _binom_sum(n, p, a, b, values, den)


# ---------------------------------------------------------------------------
# the Euler operator, squared-binomial polynomials and ordinary generating
# functions


def _euler_operator_r(m: int, n: int, p: int) -> Poly:
    """(x d/dx)^m applied to r_poly(n, p)."""
    return euler_operator(r_poly(n, p), m)


@_identity(
    "yp3_euler_operator",
    Verdict.HOLDS_PRINTED,
    _grid("m", "n", "p", "lam", m_min=1, m_cap=6, p_cap=3),
)
def _yp3_euler_operator(m, n, p, lam):
    """m-th iterate of x d/dx on the coefficient polynomial,
    evaluated at lam"""
    a, b = _ratio(lam)
    return _table(_euler_operator_r, m, n, p)(lam), _y6_value(m, n, a, b, p)


@_identity("vowe_recurrence", Verdict.HOLDS_PRINTED, _ns(1, 10))
def _vowe_recurrence(n):
    """three-term recurrence for the squared-binomial
    polynomial family"""
    rhs = (
        Fraction(2 * n + 1, n + 1) * Poly([1, 1]) * vowe(n)
        - Fraction(n, n + 1) * Poly([1, -1]) ** 2 * vowe(n - 1)
    )
    return vowe(n + 1), rhs


@_identity("vowe_legendre", Verdict.HOLDS_PRINTED, _N11)
def _vowe_legendre(n):
    """substitution bridge to the Legendre polynomials"""
    acc = Poly()
    for k, ak in enumerate(legendre(n).coeffs):
        acc = acc + ak * Poly([1, 1]) ** k * Poly([1, -1]) ** (n - k)
    return vowe(n), acc


@_identity(
    "ogf_00",
    Verdict.HOLDS_PRINTED,
    _grid("lam"),
    singular=lambda lam: (
        "ordinary closed form singular at lambda = 1" if lam == 1 else None
    ),
)
def _ogf_00(lam):
    """p=0 ordinary closed form (lam e^(lam t) - e^t)/(lam - 1)"""
    return ogf_series(OgfCase.LAM_P0, lam, 8), ogf_reference(OgfCase.LAM_P0, lam, 8)


@_identity("ogf_01", Verdict.HOLDS_PRINTED, _grid("lam"))
def _ogf_01(lam):
    """p=1 ordinary closed form e^((lam+1)t)"""
    return ogf_series(OgfCase.LAM_P1, lam, 8), ogf_reference(OgfCase.LAM_P1, lam, 8)


@_identity("ogf_12", Verdict.HOLDS_PRINTED, _NO_PARAMETERS)
def _ogf_12():
    """four equivalent forms of the lam=1, p=2 ordinary
    generating function"""
    order = 12
    closed = ogf_series(OgfCase.ONE_P2, None, order)
    ref = ogf_reference(OgfCase.ONE_P2, None, order)
    # the four equivalent coefficient expressions
    hyper = [
        Fraction(4) ** n * pochhammer(Fraction(1, 2), n) / factorial(n) ** 2
        for n in range(order + 1)
    ]
    catalan = [
        (n + 1) * classic_sequence(FamilyTag.CATALAN, n) / factorial(n)
        for n in range(order + 1)
    ]
    ratio = [Fraction(factorial(2 * n), factorial(n) ** 3) for n in range(order + 1)]
    return (closed, closed, closed, closed), (ref, hyper, catalan, ratio)


@_identity("ogf_m12", Verdict.HOLDS_PRINTED, _NO_PARAMETERS)
def _ogf_m12():
    """lam=-1, p=2 ordinary generating function via the gamma
    closed form with 1/Gamma(pole)=0"""
    return (
        ogf_series(OgfCase.MINUS1_P2, None, 12),
        ogf_reference(OgfCase.MINUS1_P2, None, 12),
    )
