"""The identity registry.

Each entry evaluates the *printed* form of an identity exactly over a
parameter grid, together with a *corrected* form where the printed
statement contains a misprint.  The expected verdict is pinned so
regressions in either direction are caught.

Declaring an entry: decorate a module-level evaluator with
``@_identity(id, expected, grid, singular=...)``.  A grid point is a tuple
of values, and the grid's ``axes`` name them in order (``("n",)`` for
``_ns``, ``("m", "n", "p", "lam")`` for ``_MNPL``).  The evaluator takes
the point positionally, its parameters named as the axes (``def
_chu(n)``), and returns ``(lhs, rhs)``; lists and tuples compare
elementwise.  Its docstring, with runs of whitespace collapsed to one
space, is the entry's ``paper_ref``.  An entry pinned
``HOLDS_CORRECTED_ONLY`` takes a ``corrected`` flag as its first
parameter, before the axes: the evaluator returns the printed form when
it is false and the corrected form when it is true, and the registry
binds ``printed`` and ``corrected`` to the two.  ``_identity`` refuses an
evaluator whose parameters are not these, or that has ``*args``,
keyword-only parameters or ``**kwargs``; it reads them from the
evaluator's code object.  ``singular`` also takes the
point positionally and returns a skip reason or None.  The runner names a
point's values by the axes only when it reports the point.  Entries are
registered in source order, which is the order of ``audit list`` and of
the report.

Independence: where an identity compares two routes to one value, the two
sides stay independent code paths, and no entry evaluates one routine on
both sides; a shared bug would otherwise cancel and the audit would prove
nothing.  Each sum has one kernel, and an entry reaches it through the
library: ``CC2`` sets ``bnk``'s integer loop against ``y6`` (through
``y1``), ``Cab3`` the series route (the n-th power of the row of 1 + lam
e^t under ``exact_core._binomial_convolve``) against ``_y6``, ``y6G`` the
moment row of ``y6_engine._moment_row`` against ``_y6_row``'s ratio walk,
``boyadzhiev`` the row C(k,j) j^n against ``_boyadzhiev_row``'s expansion
over S(n,j), and ``golombek`` and ``altStirling`` take ``bnk``, ``moment``
and ``franel`` against the series, the closed forms and S(n,k).  The
integer sides take s(n,k) and S(n,k) from the row recurrences of
``classic_numbers._STIRLING1`` and ``_STIRLING2``, which keep no row:
``_boyadzhiev_row``, ``Bs1`` and ``CB1_xu`` read the one row they need
through ``_TABLES``, ``_stirling_values`` builds it once per table,
``fd_ogf``'s ``b_ogf`` reads it once per call, and ``t_poly`` and
``_sec6_bernoulli_values`` walk the rows in order.  ``altStirling`` and
``changhee_theorem`` take the ``Fraction``-valued ``stirling2`` and
``stirling1``, and ``changhee_theorem`` keeps its own ``Fraction`` sum of
s(n,k) E_k(0) on purpose: ``legendre_P0`` checks the same identity through
``classic_sequence``'s integer sum, so a fault in that sum fails one entry
and not the other.  ``_binom_sum`` sums C(n,j)^p lam^j g(j) directly and
calls none of ``y6``, ``p_poly``, ``raw_sum_poly`` or ``r_poly``, the
routes it is compared with.  At p = 0 it also gives the left sides of the
four power-sum entries (through ``_power_sum``), against Bernoulli, Euler,
Apostol-Bernoulli and Frobenius-Euler closed forms that never call it: the
right sides of the four are ``p_polynomials._mirimanoff_frobenius_sum``,
``_power_sum_closed`` or a quotient of two ``_poly_at`` values, so each
evaluates its polynomial through ``_poly_at``;
``test_faulty_binom_sum_flips_its_consumers`` shows that a fault in it is
not cancelled, and ``test_faulty_integer_closed_side_flips_its_readers``
pins the entries that read each integer closed side.  A ``Poly`` g reaches
it through ``exact_core._int_values``, which gives the values of B_m and
E_m on the right sides of ``inP3_4``/``inP5_6``; their left sides dot P
with the Volkenborn and fermionic moment rows, built from Mahler weights
with no Bernoulli or Euler number and no ``_int_values``.
``test_faulty_int_values_flips_the_moment_entries`` shows that a fault
there reaches both entries.  ``_int_values`` evaluates through
``exact_core._poly_at``, the one Horner, as ``Poly.__call__``,
``P1_corollary`` and ``yp3_euler_operator`` do;
``test_faulty_horner_flips_every_polynomial_value`` pins the 15 entries
that a fault in it reaches.  ``p_poly`` reweights the same moment row and
calls neither y6 kernel, so ``py6ab``, ``inP1``, ``inP8a`` and
``P1_corollary``, which set the polynomial family against rows of
``_y6_row`` (through ``_y6_sum``, or read directly in ``py6ab``), compare
independent routes, as ``y6G`` does.
``test_faulty_y6_kernel_flips_its_consumers`` pins the entries that a
fault in ``_y6`` and in ``_y6_row`` reaches: two disjoint sets.

Speed: the sums over the large grids are taken in integers over one common
denominator, and a side is left as that unreduced quotient or row and
compared by cross-multiplying, with no gcd and no ``Fraction`` per point.
So are the power-sum closed forms, ``faulhaber``'s and ``alt_euler_sum``'s
printed sides among them, ``boyadzhiev``'s expansion, the series of
``y6G`` (a list of ``_Unreduced``) and ``Cab3``, and ``CB1_xu``.  The
sides that still build a ``Fraction`` per point are on grids of at most 81
points (the B(n,k) entries, the Franel, Legendre and OGF slices) or are
``y6bb``'s pFq form, which goes through the ``Fraction``-valued
``pfq_terminating``: a warm default audit builds about 7.5 k.  An entry
over a lam grid splits lam = a/b once per point and passes a and b on, so
the memoized ``_y6``, ``_y6_row`` and ``_p_poly`` hash no ``Fraction``.  A
sum over m of y6(k,n;lam,p) (``_y6_sum``, and the right sides of ``py6ab``
and ``y6G``) reads one row of ``_y6_row`` and takes one ``map`` product
with its weights, with no lookup per k; the row's top is rounded up to
``top | 15``, so every m of an (n, lam, p) slice, in every entry that
sums over m, reads the same memoized row.
A side's part that several points share is a table, read as
``_TABLES[build, *ints]`` (one dict subscript) and built once per key and
entry evaluation.  A table is keyed on ints only: where it depends on lam,
on lam's integer parts a and b.  Each table belongs to one side of its
identity.  So a linear functional of the polynomial family (the
integral over [0,1], Volkenborn, fermionic) is its moment row, built once
per degree, and one integer dot product with P's numerators per point
(``exact_core._functional``); ``_binom_sum`` is one dot product with the
weights C(n,j)^p a^j b^(n-j) of its (n, p, a, b) slice.  The ``_y6_sum``
weights, the Riemann values (j+1)^e - j^e, the closed forms' polynomials,
per (m, a, b), the Bernoulli and Euler polynomials, per degree and order,
and the rows of B(d,k) and of the Stirling triangles, per d, are tables
too: ``classic_numbers`` keeps no memo and no row of its own.  A
``_grid`` yields its points lazily, so the runner's config check draws
them only up to the first difference.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import islice, product
from math import comb, factorial, lcm
from operator import mul
from typing import Any, Callable, Iterator, Optional

from ..classic_numbers import (
    _STIRLING1,
    _STIRLING2,
    apostol_bernoulli,
    bernoulli_poly,
    bernoulli_poly_order,
    classic_sequence,
    euler_number0,
    euler_poly,
    euler_poly_order,
    legendre,
    stirling1,
    stirling2,
    y_seq,
    FamilyTag,
)
from ..exact_core import (
    EgfSeries,
    Poly,
    _Unreduced,
    _UnreducedPoly,
    _binomial_convolve,
    _functional,
    _int_values,
    _integral01_row,
    _poly_at,
    _power,
    _ratio,
    pochhammer,
)
from ..hypergeom import (
    OgfCase,
    alternating_square_gamma,
    ogf_reference,
    ogf_series,
    y6_hyper,
)
from ..p_polynomials import (
    _fermionic_row,
    _frobenius_poly,
    _mirimanoff_frobenius_sum,
    _p_poly,
    _power_sum_closed,
    _power_sum_poly,
    _raw_sum,
    _volkenborn_row,
    euler_operator,
    r_poly,
    vowe,
)
from ..y6_engine import (
    _moment_row,
    _y6,
    _y6_row,
    _y6_value,
    b_ogf,
    bnk,
    franel,
    moment,
    t_poly,
    y1,
    y6,
)
from .config import GridSpec

__all__ = ["Verdict", "IdentityEntry", "build_registry"]

Grid = Callable[[GridSpec], Iterator[tuple]]


class Verdict(Enum):
    HOLDS_PRINTED = "HOLDS_PRINTED"
    HOLDS_CORRECTED_ONLY = "HOLDS_CORRECTED_ONLY"
    FAILS_BOTH = "FAILS_BOTH"


def _never_singular(*pt) -> None:
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
    # the names of a grid point's values, in order
    axes: tuple[str, ...] = ()

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
    """Register the decorated evaluator as entry ``entry_id``; its
    parameters must be the grid's ``axes``, after ``corrected`` for an
    entry pinned ``HOLDS_CORRECTED_ONLY``, and all positional."""

    def register(fn):
        if any(e.id == entry_id for e in _ENTRIES):
            raise RuntimeError(f"duplicate registry id {entry_id!r}")
        flag = ("corrected",) if expected is Verdict.HOLDS_CORRECTED_ONLY else ()
        code = fn.__code__
        # a code object names the positional parameters first, then the
        # keyword-only ones, then *args and **kwargs (co_flags 0x04, 0x08);
        # the runner passes a point positionally, so only the first may be
        extra = (
            code.co_kwonlyargcount
            + bool(code.co_flags & 0x04)
            + bool(code.co_flags & 0x08)
        )
        params = code.co_varnames[: code.co_argcount + extra]
        if extra or params != flag + grid.axes:
            raise RuntimeError(
                f"{entry_id}: evaluator parameters {params} are not {flag + grid.axes}"
            )
        printed, corrected = fn, None
        if flag:
            printed, corrected = partial(fn, False), partial(fn, True)
        _ENTRIES.append(
            IdentityEntry(
                id=entry_id,
                paper_ref=" ".join(fn.__doc__.split()),
                expected=expected,
                printed=printed,
                grid=grid,
                axes=grid.axes,
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

    names = tuple(name for name in ("m", "n", "p", "lam") if name in use)

    @_axes(*names)
    def points(spec: GridSpec) -> Iterator[tuple]:
        axes = {
            "m": range(m_min, _capped(spec.m_max, m_cap) + 1),
            "n": range(n_min, _capped(spec.n_max, n_cap) + 1),
            "p": range(p_min, _capped(spec.p_max, p_cap) + 1),
            "lam": spec.lambdas if lams is None else lams,
        }
        return product(*(axes[name] for name in names))

    return points


def _axes(*names: str) -> Callable[[Grid], Grid]:
    """Decorator naming the values of the grid's points, in order, as
    ``grid.axes``, which ``_identity`` copies to the entry."""

    def name(grid: Grid) -> Grid:
        grid.axes = names
        return grid

    return name


def _capped(limit: int, cap: int | None) -> int:
    return limit if cap is None else min(limit, cap)


def _fixed(axes: tuple[str, ...], points: list[tuple]) -> Grid:
    """A grid that never reads its GridSpec: the same points under any config."""
    return _axes(*axes)(lambda spec: iter(points))


def _ns(*bounds: int) -> Grid:
    return _fixed(("n",), [(n,) for n in range(*bounds)])


# the polynomial family's grid, shared by its integral representations
_MNPL = _grid("m", "n", "p", "lam", p_cap=3)
_MN8 = _grid("m", "n", m_cap=8, n_cap=8)
_MN10 = _grid("m", "n", m_cap=10, n_cap=10)
_POWER_SUM = _grid("m", "n", m_min=1, n_min=1, n_cap=12)
# the Section 6 grid's n runs over 0.._SEC6_N
_SEC6_N = 5
_SEC6 = _grid(
    "m", "n", "p", "lam",
    m_cap=5, n_cap=_SEC6_N, p_cap=2, lams=(FM1, F1, Fraction(2)),
)
# the B(d,k) grid's k runs over 0.._DK_K
_DK_K = 12
_DK = _fixed(("d", "k"), [(d, k) for d in range(1, 7) for k in range(_DK_K + 1)])
_N11 = _ns(11)
_N13 = _ns(13)
_NO_PARAMETERS = _fixed((), [()])


class _Built(dict):
    """Tables by subscript: ``_TABLES[build, *ints]`` is ``build(*ints)``.

    A table is the part of one side of an identity that several grid
    points share, keyed only on ints (lam's integer parts among them
    where it depends on lam).  This store builds a missing table and
    keeps nothing, so an evaluator called directly, as a test does, builds
    its tables afresh on every call and reads a kernel patched before the
    call."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> Any:
        build, *ints = key
        return build(*ints)


class _Kept(_Built):
    """The store inside ``_tables()``: each table is built at most once,
    keyed on (build, *ints), and kept until the block ends."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> Any:
        value = self[key] = super().__missing__(key)
        return value


# the tables of the entry evaluation under way; outside one, none is kept
_TABLES: dict[tuple, Any] = _Built()


@contextmanager
def _tables() -> Iterator[None]:
    """Keep each table ``_TABLES`` builds inside the block, which
    ``runner.evaluate_entry`` puts round each entry, and nowhere else, so
    no table outlives one evaluation."""
    global _TABLES
    _TABLES = _Kept()
    try:
        yield
    finally:
        _TABLES = _Built()


def _binom_weights(n: int, p: int, a: int, b: int) -> list[int]:
    """C(n,j)^p a^j b^(n-j) for j = 0..n: the integer weights of
    ``_binom_sum`` for lam = a/b; n = -1 has none."""
    return [comb(n, j) ** p * a**j * b ** (n - j) for j in range(n + 1)]


def _binom_sum(n: int, p: int, a: int, b: int, values: list[int], den: int) -> _Unreduced:
    """sum_{j=0}^{n} C(n,j)^p lam^j g(j) for lam = a/b, as ``_ratio`` gives
    it, and g(j) = values[j]/den.

    The caller gives the integer numerators of g(0..n) over one
    denominator, into which it folds any outer divisor of the sum.  The
    integer sum_j C(n,j)^p a^j b^(n-j) values[j] is one dot product with the
    slice's weight table, put over den b^n, unreduced; n = -1, with no
    values, is the empty sum 0."""
    weights = _TABLES[_binom_weights, n, p, a, b]
    return _Unreduced(sum(map(mul, weights, values)), den * b ** max(n, 0))


def _y6_sum(n: int, p: int, a: int, b: int, weights: list[int], den: int) -> _Unreduced:
    """sum_k (weights[k]/den) y6(k,n;a/b,p), summed as integers and put
    over den n! b^n, unreduced."""
    row = _y6_row(n, a, b, p, (len(weights) - 1) | 15)
    return _Unreduced(sum(map(mul, weights, row)), den * factorial(n) * b**n)


def _binomials(m: int) -> list[int]:
    """C(m,k) for k = 0..m."""
    return [comb(m, k) for k in range(m + 1)]


def _integral_weights(m: int) -> tuple[list[int], int]:
    """C(m,k)/(m-k+1) for k = 0..m, as integers over L = lcm(1..m+1)."""
    big_l = lcm(*range(1, m + 2))
    return [comb(m, k) * (big_l // (m - k + 1)) for k in range(m + 1)], big_l


def _coefficient_integral(m: int, n: int, p: int, a: int, b: int) -> _Unreduced:
    """Integral over [0,1] of the polynomial family, term by term from its
    y6 coefficients: sum_k C(m,k) y6(k,n;a/b,p)/(m-k+1)."""
    return _y6_sum(n, p, a, b, *_TABLES[_integral_weights, m])


def _riemann_values(e: int, n: int) -> list[int]:
    """(j+1)^e - j^e for j = 0..n."""
    return [(j + 1) ** e - j**e for j in range(n + 1)]


def _riemann_sum(m: int, n: int, p: int, a: int, b: int, corrected: bool) -> _Unreduced:
    """Summation form of the Riemann integral; the printed form drops the
    1/n! and the +1 in the exponent."""
    values = _TABLES[_riemann_values, m + 1 if corrected else m, n]
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


def _power_sum(m: int, upper: int, lam: Fraction, x0: Fraction = Fraction(0)) -> _Unreduced:
    """Brute-force sum_{j=0}^{upper-1} lam^j (x0+j)^m with 0^0 = 1: the
    p = 0 member of ``_binom_sum``, with values (c+jd)^m over d^m for
    x0 = c/d."""
    c, d = x0.numerator, x0.denominator
    values = [(c + j * d) ** m for j in range(upper)]
    return _binom_sum(upper - 1, 0, *_ratio(lam), values, d**m)


# ---------------------------------------------------------------------------
# B(n,k) = sum_j C(k,j) j^n and the Stirling numbers


@_axes("d", "k", "m", "n")
def _golombek_grid(spec: GridSpec) -> Iterator[tuple]:
    """Points (d, k) of B(d,k), then (m, n) of the closed sequences, each
    padded with None to the four axes."""
    for d in range(1, min(4, spec.m_max + 1)):
        for k in range(0, min(12, max(spec.n_max, 8)) + 1):
            yield d, k, None, None
    for m in range(0, 4):
        for n in range(2, min(10, max(spec.n_max, 4)) + 1):
            yield None, None, m, n


@_identity("golombek", Verdict.HOLDS_PRINTED, _golombek_grid)
def _golombek(d, k, m, n):
    """B(n,k) sum vs derivative of (e^t+1)^k; closed sequences
    (k=0 term subtracted explicitly where the source sums from 1)"""
    if d is not None:
        rhs = EgfSeries.one(d) + EgfSeries.exp(1, d)
        return bnk(d, k), rhs.pow(k).coeff(d)
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
        comb(n, j) * factorial(j) * 2 ** (n - j) * s
        for j, s in enumerate(_TABLES[_STIRLING2.row, m][: n + 1])
    )
    return bnk(m, n), rhs


def _boyadzhiev_row(m: int, n: int) -> _UnreducedPoly:
    """sum_j C(n,j) j! S(m,j) x^j (1+x)^(n-j) as its n + 1 integer
    coefficients, over 1: the weight of x^j times C(n-j, i-j) at x^i."""
    row = [0] * (n + 1)
    for j, s in enumerate(_TABLES[_STIRLING2.row, m][: n + 1]):
        weight = comb(n, j) * factorial(j) * s
        c = 1
        for i in range(j, n + 1):  # c = C(n-j, i-j)
            row[i] += weight * c
            c = c * (n - i) // (i - j + 1)
    return _UnreducedPoly(row, 1)


@_identity("boyadzhiev", Verdict.HOLDS_PRINTED, _MN8)
def _boyadzhiev(m, n):
    """sum_j C(k,j) j^n x^j = sum_j C(k,j) j! S(n,j) x^j (1+x)^(k-j),
    polynomial identity in x"""
    # the paper's power n is the grid's m and its row k is the grid's n
    lhs = _UnreducedPoly([comb(n, j) * j**m for j in range(n + 1)], 1)
    return lhs, _boyadzhiev_row(m, n)


@_identity("altStirling", Verdict.HOLDS_PRINTED, _MN10)
def _alt_stirling(m, n):
    """sum_j (-1)^j C(k,j) j^n = (-1)^k k! S(n,k)"""
    return franel(1, m, n, FM1), (-1) ** n * factorial(n) * stirling2(m, n)


def _bnk_row(d: int, k_max: int) -> list[Fraction]:
    """B(d,k) for k = 0..k_max, each from ``bnk``'s own loop."""
    return [bnk(d, k) for k in range(k_max + 1)]


@_identity("CB1_xu", Verdict.HOLDS_PRINTED, _DK)
def _cb1_xu(d, k):
    """recurrence sum_v m_v B(d-v,k) = 2^(k-d) C(k,d) with m_v = s(d,d-v)/d!"""
    lhs = sum(
        s * _TABLES[_bnk_row, j, _DK_K][k].numerator
        for j, s in enumerate(_TABLES[_STIRLING1.row, d][1:], 1)
    )
    return _Unreduced(lhs, factorial(d)), _Unreduced(comb(k, d) << k, 1 << d)


@_identity("tpoly", Verdict.HOLDS_PRINTED, _DK)
def _tpoly(d, k):
    """B(d,k) = 2^(k-d) T_d(k)"""
    return bnk(d, k), Fraction(2) ** (k - d) * _TABLES[t_poly, d](k)


@_identity("xu_x", Verdict.HOLDS_PRINTED, _fixed(("d",), [(d,) for d in range(1, 7)]))
def _xu_x(d):
    """T_d coefficients x_(d-l) = sum_j s(j,l) S(d,j) 2^(d-j)"""
    # coefficients from the Stirling formula vs interpolation of the
    # scaled values 2^(d-k) B(d,k)
    row = _TABLES[_bnk_row, d, d]
    pts = [(Fraction(k), Fraction(2) ** (d - k) * v) for k, v in enumerate(row)]
    return t_poly(d), lagrange_poly(pts)


@_identity("fd_ogf", Verdict.HOLDS_PRINTED, _fixed(("d",), [(d,) for d in range(7)]))
def _fd_ogf(d):
    """ordinary generating function of k -> B(d,k):
    sum_j j! S(d,j) x^j/(1-2x)^(j+1)"""
    return b_ogf(d).series(12), _TABLES[_bnk_row, d, 12]


@_identity(
    "Cab3",
    Verdict.HOLDS_PRINTED,
    _grid("m", "n", "lam", m_cap=8, n_cap=8, lams=(F1, Fraction(2), FM1)),
)
def _cab3(m, n, lam):
    """negative-order Apostol-Euler numbers:
    E_n^(-k)(lam) = k! 2^(-k) y1(n,k;lam)"""
    # the paper's index n is the grid's m and its order k is the grid's n
    a, b = _ratio(lam)
    # 1 + lam e^t has the EGF row a + b, a, ..., a over b; its n-th power,
    # by binomial convolution, is over b^n, and both sides are over (2b)^n
    row = _power([a + b] + [a] * m, n, _binomial_convolve) if n else [1] + [0] * m
    den = (2 * b) ** n
    return _Unreduced(row[m], den), _Unreduced(_y6(m, n, a, b, 1), den)


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
    a, b = _ratio(lam)
    # both rows are numerators over n! b^n
    den = factorial(n) * b**n
    lhs = [_Unreduced(v, den) for v in _moment_row(order, n, a, b, p)]
    rhs = _y6_row(n, a, b, p, order | 15)[: order + 1]
    return lhs, [_Unreduced(v, den) for v in rhs]


@_identity("y6bb", Verdict.HOLDS_PRINTED, _grid("n", "p", "lam", n_cap=10, p_min=1))
def _y6bb(n, p, lam):
    """hypergeometric form: p copies of -n over p-1 ones, argument (-1)^p lam"""
    return y6_hyper(n, lam, p), _y6_value(0, n, *_ratio(lam), p)


@_identity("chu", Verdict.HOLDS_PRINTED, _ns(21))
def _chu(n):
    """Chu-Vandermonde: sum_k C(n,k)^2 = C(2n,n)"""
    return moment(0, 2, n), Fraction(comb(2 * n, n))


def _alternating_closed(p: int, n: int) -> Fraction:
    """sum_k (-1)^k C(n,k)^p for p = 2, 3 in closed form: 0 for odd n and
    (-1)^h (ph)!/(h!)^p for n = 2h."""
    if n % 2:
        return Fraction(0)
    h = n // 2
    return Fraction((-1) ** h * factorial(p * h), factorial(h) ** p)


@_identity("dixon", Verdict.HOLDS_PRINTED, _ns(7))
def _dixon(n):
    """Dixon special case: alternating cubes over an even row"""
    return franel(3, 0, 2 * n, FM1), _alternating_closed(3, 2 * n)


@_identity("cusick_sym", Verdict.HOLDS_PRINTED, _grid("m", "n", "p", m_cap=8, n_cap=8))
def _cusick_sym(m, n, p):
    """symmetry recurrence S_(n,m) = sum_k (-1)^k C(m,k)
    n^(m-k) S_(n,k)"""
    rhs = sum(
        (-1) ** k * comb(m, k) * n ** (m - k) * _y6(k, n, 1, 1, p)
        for k in range(m + 1)
    )
    return _y6(m, n, 1, 1, p), rhs


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
    return (v, v), (alternating_square_gamma(n), _alternating_closed(2, n))


@_identity("alt3", Verdict.HOLDS_PRINTED, _N13)
def _alt3(n):
    """alternating cubes: even/odd piecewise closed form"""
    return franel(3, 0, n, FM1), _alternating_closed(3, n)


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
def _yp1yp2_bridge(corrected, m, n, p, lam):
    """the two defining forms of the polynomial family; the
    printed pair omits the 1/n!"""
    a, b = _ratio(lam)
    lhs = _p_poly(m, n, a, b, p)
    if corrected:  # n! P: P's numerators over b^n in place of n! b^n
        lhs = _UnreducedPoly(lhs.nums, b**n)
    return lhs, _raw_sum(m, n, a, b, p)


@_identity(
    "py6a",
    Verdict.HOLDS_CORRECTED_ONLY,
    _grid("m", "n", "p", "lam", m_min=1, p_cap=3),
)
def _py6a(corrected, m, n, p, lam):
    """k-fold x-derivative; printed uses the falling factorial
    of n, the derivation forces the falling factorial of m"""
    top = m if corrected else n
    a, b = _ratio(lam)
    # every P(m-k) shares P(m)'s denominator n! b^n: compare numerators
    d = _p_poly(m, n, a, b, p)
    nums, den = d.nums, d.den
    lhs, rhs = [], []
    fall = 1
    for k in range(1, m + 1):
        nums = [i * nums[i] for i in range(1, len(nums))]
        lhs.append(_UnreducedPoly(nums, den))
        fall *= top - k + 1
        row = _p_poly(m - k, n, a, b, p).nums
        rhs.append(_UnreducedPoly([fall * c for c in row], den))
    return lhs, rhs


@_identity("py6ab", Verdict.HOLDS_PRINTED, _MNPL)
def _py6ab(m, n, p, lam):
    """t-derivative recurrence for the polynomial family"""
    a, b = _ratio(lam)
    # P(m+1) - x P(m) over their common n! b^n; its x^(m+1) term is 0
    hi, lo = _p_poly(m + 1, n, a, b, p), _p_poly(m, n, a, b, p)
    lhs = [h - l for h, l in zip(hi.nums, (0, *lo.nums))]
    # coefficients C(m,i) y6(m-i+1,n;lam,p), as integers over n! b^n
    row = _y6_row(n, a, b, p, (m + 1) | 15)
    ys = [*map(mul, _TABLES[_binomials, m], row[m + 1 : 0 : -1]), 0]
    return _UnreducedPoly(lhs, hi.den), _UnreducedPoly(ys, hi.den)


@_identity("inP1", Verdict.HOLDS_PRINTED, _MNPL)
def _inp1(m, n, p, lam):
    """Riemann integral over [0,1], coefficient form"""
    a, b = _ratio(lam)
    lhs = _functional(_p_poly(m, n, a, b, p), _TABLES[_integral01_row, m + 1])
    return lhs, _coefficient_integral(m, n, p, a, b)


@_identity("inP2", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _inp2(corrected, m, n, p, lam):
    """Riemann integral, summation form; printed drops both
    the 1/n! and the +1 in the exponent"""
    a, b = _ratio(lam)
    lhs = _functional(_p_poly(m, n, a, b, p), _TABLES[_integral01_row, m + 1])
    return lhs, _riemann_sum(m, n, p, a, b, corrected)


@_identity("inP8", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _inp8(corrected, m, n, p, lam):
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
    return lhs, _riemann_sum(m, n, p, a, b, False)


def _inp8a_values(top: int, n: int) -> list[int]:
    """inP8a's inner sums sum_{l<top} C(top,l) j^l for j = 0..n."""
    return [sum(comb(top, l) * j**l for l in range(top)) for j in range(n + 1)]


@_identity("inP8a", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _inp8a(corrected, m, n, p, lam):
    """expanded integral identity; corrected form restores the
    1/n! and the full inner sum with C(m+1,l)"""
    a, b = _ratio(lam)
    # (m+1) sum_k C(m,k)/(m-k+1) y6(k): L = lcm(1..m+1) is a multiple of m+1
    weights, big_l = _TABLES[_integral_weights, m]
    lhs = _y6_sum(n, p, a, b, weights, big_l // (m + 1))
    # printed: sum_{l<m} C(m,l) j^l; corrected: sum_{l<=m} C(m+1,l) j^l
    values = _TABLES[_inp8a_values, m + 1 if corrected else m, n]
    return lhs, _binom_sum(n, p, a, b, values, factorial(n) if corrected else 1)


@_identity("P1_corollary", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _p1_corollary(corrected, m, n, p, lam):
    """value at x=1; printed mixes normalizations and fails,
    the corrected statement is the x=1 evaluation of the
    coefficient form"""
    a, b = _ratio(lam)
    lhs = _poly_at(_p_poly(m, n, a, b, p), 1, 1)
    if corrected:
        return lhs, _y6_sum(n, p, a, b, _TABLES[_binomials, m], 1)
    rhs = Fraction(m + 1, factorial(n)) * _coefficient_integral(m, n, p, a, b).fraction()
    return lhs, rhs + _y6_value(m, n, a, b, p).fraction()


def _bernoulli_values(m: int, n: int) -> tuple[list[int], int]:
    """B_m(0..n) as integers over one denominator."""
    q = _TABLES[bernoulli_poly, m]
    return _int_values(q, n + 1), q.den


def _euler_values(m: int, n: int) -> tuple[list[int], int]:
    """E_m(0..n) as integers over one denominator."""
    q = _TABLES[euler_poly, m]
    return _int_values(q, n + 1), q.den


@_identity("inP3_4", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _inp3_4(corrected, m, n, p, lam):
    """Bernoulli-moment functional of the polynomial family; printed
    right side lacks the 1/n!"""
    a, b = _ratio(lam)
    lhs = _functional(_p_poly(m, n, a, b, p), _TABLES[_volkenborn_row, m + 1])
    values, den = _TABLES[_bernoulli_values, m, n]
    return lhs, _binom_sum(n, p, a, b, values, den * factorial(n) if corrected else den)


@_identity("inP5_6", Verdict.HOLDS_CORRECTED_ONLY, _MNPL)
def _inp5_6(corrected, m, n, p, lam):
    """Euler-moment functional of the polynomial family; printed right
    side lacks the 1/n!"""
    a, b = _ratio(lam)
    lhs = _functional(_p_poly(m, n, a, b, p), _TABLES[_fermionic_row, m + 1])
    values, den = _TABLES[_euler_values, m, n]
    return lhs, _binom_sum(n, p, a, b, values, den * factorial(n) if corrected else den)


# ---------------------------------------------------------------------------
# power sums


_X0S = (Fraction(0), F1, Fraction(1, 2))


@_axes("m", "n", "x0", "lam")
def _mirimanoff_grid(spec: GridSpec) -> Iterator[tuple]:
    ms, ns = range(min(spec.m_max, 6) + 1), range(1, min(spec.n_max, 6) + 1)
    return product(ms, ns, _X0S, spec.lambdas)


@_identity(
    "mirimanoff_frobenius",
    Verdict.HOLDS_CORRECTED_ONLY,
    _mirimanoff_grid,
    singular=lambda m, n, x0, lam: (
        "closed form undefined at u in {0, 1}" if _ratio(lam) in ((0, 1), (1, 1)) else None
    ),
)
def _mirimanoff_frobenius(corrected, m, n, x0, lam):
    """geometric power sum via Frobenius-Euler polynomials;
    printed repeats the shifted argument in both terms"""
    (a, b), (c, d) = _ratio(lam), _ratio(x0)
    lhs = _power_sum(m, n, lam, x0)
    h = _TABLES[_frobenius_poly, m, a, b]
    if corrected:
        return lhs, _mirimanoff_frobenius_sum(h, n, c, d, a, b)
    # (u^n - 1) h(x0+n) / (u - 1)
    top = _poly_at(h, c + n * d, d)
    return lhs, _Unreduced(top.num * (a**n - b**n) * b, top.den * b**n * (a - b))


def _apostol_poly(m: int, a: int, b: int) -> Poly:
    """The Apostol-Bernoulli polynomial A_m(x; a/b)."""
    return apostol_bernoulli(m, Fraction(a, b))


@_identity(
    "apostol_powersum",
    Verdict.HOLDS_CORRECTED_ONLY,
    _grid("m", "n", "lam", m_min=1, n_min=1),
    singular=lambda m, n, lam: (
        "Apostol-Bernoulli closed form undefined at lambda = 1"
        if _ratio(lam) == (1, 1)
        else None
    ),
)
def _apostol_powersum(corrected, m, n, lam):
    """geometric power sum via Apostol-Bernoulli polynomials;
    printed exponent lam^m instead of lam^N"""
    a, b = _ratio(lam)
    lhs = _power_sum(m - 1, n, lam)
    if corrected:
        q = _TABLES[_power_sum_poly, m - 1, a, b]
        return lhs, _power_sum_closed(q, m - 1, n, a, b)
    # (lam^m A_m(n) - A_m(0)) / m, with A_m(n) and A_m(0) over one denominator
    q = _TABLES[_apostol_poly, m, a, b]
    top, bottom = _poly_at(q, n, 1).num, _poly_at(q, 0, 1).num
    return lhs, _Unreduced(a**m * top - b**m * bottom, q.den * b**m * m)


@_identity("faulhaber", Verdict.HOLDS_PRINTED, _POWER_SUM)
def _faulhaber(m, n):
    """classical power-sum formula via Bernoulli polynomials"""
    # (B_m(n) - B_m(0)) / m, with B_m(n) and B_m(0) over one denominator
    q = _TABLES[bernoulli_poly, m]
    top, bottom = _poly_at(q, n, 1).num, _poly_at(q, 0, 1).num
    return _power_sum(m - 1, n, F1), _Unreduced(top - bottom, q.den * m)


@_identity("alt_euler_sum", Verdict.HOLDS_CORRECTED_ONLY, _POWER_SUM)
def _alt_euler_sum(corrected, m, n):
    """alternating power sum via Euler polynomials; printed
    form has a sign slip and a degree off by one"""
    if corrected:
        q = _TABLES[_power_sum_poly, m, -1, 1]
        return _power_sum(m, n, FM1), _power_sum_closed(q, m, n, -1, 1)
    # ((-1)^(n-1) E_m(n) - E_m(0)) / 2, over one denominator
    q = _TABLES[euler_poly, m]
    top, bottom = _poly_at(q, n, 1).num, _poly_at(q, 0, 1).num
    rhs = _Unreduced((-1) ** (n - 1) * top - bottom, q.den * 2)
    return _power_sum(m - 1, n, FM1), rhs


# ---------------------------------------------------------------------------
# y6 as Stirling, Bernoulli and Euler double sums


def _stirling_values(m: int, n: int) -> list[int]:
    """sec6_stirling's inner sums over n!, for k = 0..n:
    sum_l S(m,l)/((n-k)! (k-l)!) = C(n,k) sum_l S(m,l) k!/(k-l)! / n!,
    where the weights k!/(k-l)! are the falling factorials of k."""
    row = _STIRLING2.row(m)
    values = []
    for k in range(n + 1):
        total, fall = 0, 1
        for l, s in enumerate(row[: k + 1]):
            total += s * fall
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
    values = _TABLES[_stirling_values, m, n]
    return _y6_value(m, n, a, b, p), _binom_sum(n, p - 1, a, b, values, factorial(n))


def _sec6_bernoulli_values(m: int, n: int) -> tuple[list[int], int]:
    """sec6_bernoulli's inner sums at k = 0..n over one denominator, into
    which C(m+n,n) n! is folded.  The inner sum over v is one polynomial
    in the binomial index k; S(v,n) = 0 for v < n."""
    rows = islice(_STIRLING2.walk(m + n + 1), n, None)
    inner = sum(
        (
            comb(m + n, v) * row[n] * _TABLES[bernoulli_poly_order, m + n - v, n]
            for v, row in enumerate(rows, n)
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
    values, den = _TABLES[_sec6_bernoulli_values, m, n]
    return _y6_value(m, n, a, b, p), _binom_sum(n, p, a, b, values, den)


def _sec6_euler_values(m: int, n: int) -> tuple[list[int], int]:
    """sec6_euler's inner sums at k = 0..n over one denominator, into
    which n! 2^n is folded."""
    inner = sum(
        (
            comb(m, v)
            * _TABLES[_bnk_row, v, _SEC6_N][n].numerator
            * _TABLES[euler_poly_order, m - v, n]
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
    values, den = _TABLES[_sec6_euler_values, m, n]
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
    return _poly_at(_TABLES[_euler_operator_r, m, n, p], a, b), _y6_value(m, n, a, b, p)


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
        "ordinary closed form singular at lambda = 1" if _ratio(lam) == (1, 1) else None
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
