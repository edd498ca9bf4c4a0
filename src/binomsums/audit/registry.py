"""The identity registry.

Each entry evaluates the *printed* form of an identity exactly over a
parameter grid, optionally together with a *corrected* form where the
printed statement contains a misprint.  The expected verdict is pinned so
regressions in either direction are caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb, factorial
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
    y1,
    y_seq,
    FamilyTag,
)
from ..exact_core import EgfSeries, Poly, pochhammer, poly_integral01
from ..hypergeom import (
    OgfCase,
    PfqSpec,
    alternating_square_gamma,
    ogf_reference,
    ogf_series,
    pfq_terminating,
    y6_hyper,
)
from ..p_polynomials import (
    euler_operator,
    fermionic,
    mirimanoff_frobenius_sum,
    p_poly,
    power_sum_closed,
    r_poly,
    raw_sum_poly,
    volkenborn,
    vowe,
)
from ..y6_engine import b_ogf, bnk, franel, moment, t_poly, y6, y6_egf
from .config import GridSpec

__all__ = ["Verdict", "IdentityEntry", "build_registry", "Point"]

Point = dict


class Verdict(Enum):
    HOLDS_PRINTED = "HOLDS_PRINTED"
    HOLDS_CORRECTED_ONLY = "HOLDS_CORRECTED_ONLY"
    FAILS_BOTH = "FAILS_BOTH"


Evaluator = Callable[[Point], tuple[Any, Any]]


@dataclass(frozen=True)
class IdentityEntry:
    id: str
    paper_ref: str
    expected: Verdict
    printed: Evaluator
    grid: Callable[[GridSpec], Iterator[Point]]
    corrected: Optional[Evaluator] = None
    singular: Callable[[Point], Optional[str]] = field(
        default=lambda pt: None
    )

    def __post_init__(self):
        if self.expected is Verdict.HOLDS_CORRECTED_ONLY and self.corrected is None:
            raise ValueError(f"{self.id}: corrected form required")


# ---------------------------------------------------------------------------
# small helpers

F1 = Fraction(1)
FM1 = Fraction(-1)


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


def direct_power_sum(m: int, upper: int, lam: Fraction) -> Fraction:
    """Brute-force sum_{j=0}^{upper-1} lam^j j^m with 0^0 = 1."""
    total = Fraction(0)
    lj = Fraction(1)
    for j in range(upper):
        total += lj * Fraction(j) ** m
        lj *= lam
    return total


def _grid(
    spec: GridSpec,
    *,
    use: tuple[str, ...],
    m_min: int = 0,
    n_min: int = 0,
    p_min: int = 0,
    m_cap: int | None = None,
    n_cap: int | None = None,
    p_cap: int | None = None,
    lams: tuple[Fraction, ...] | None = None,
) -> Iterator[Point]:
    """Cartesian grid over the requested parameter names, bounded by the
    GridSpec and optional per-entry caps."""
    m_hi = spec.m_max if m_cap is None else min(spec.m_max, m_cap)
    n_hi = spec.n_max if n_cap is None else min(spec.n_max, n_cap)
    p_hi = spec.p_max if p_cap is None else min(spec.p_max, p_cap)
    lam_list = spec.lambdas if lams is None else lams
    ms = range(m_min, m_hi + 1) if "m" in use else [None]
    ns = range(n_min, n_hi + 1) if "n" in use else [None]
    ps = range(p_min, p_hi + 1) if "p" in use else [None]
    ls = lam_list if "lam" in use else [None]
    for m in ms:
        for n in ns:
            for p in ps:
                for lam in ls:
                    pt = {}
                    if m is not None:
                        pt["m"] = m
                    if n is not None:
                        pt["n"] = n
                    if p is not None:
                        pt["p"] = p
                    if lam is not None:
                        pt["lam"] = lam
                    yield pt


def _fixed(points: list[Point]) -> Callable[[GridSpec], Iterator[Point]]:
    return lambda spec: iter(points)


# ---------------------------------------------------------------------------
# entry constructors, grouped roughly by theme


def _golombek_entries() -> list[IdentityEntry]:
    def printed(pt):
        if "d" in pt:
            d, k = pt["d"], pt["k"]
            lhs = sum(comb(k, j) * j**d for j in range(1, k + 1))
            rhs = EgfSeries([1] + [0] * d) + EgfSeries.exp(1, d)
            return Fraction(lhs), rhs.pow(k).coeffs[d]
        # second sequence family: sums from k=1 of squared binomials
        m, n = pt["m"], pt["n"]
        lhs = Fraction(sum(comb(n, k) ** 2 * k**m for k in range(1, n + 1)))
        closed = {
            0: Fraction(comb(2 * n, n) - 1),
            1: Fraction(n * comb(2 * n - 1, n)),
            2: Fraction(n**2 * comb(2 * n - 2, n - 1)),
            3: Fraction(n**2 * (n + 1) * comb(2 * n - 3, n - 1)),
        }[m]
        return lhs, closed

    def grid(spec):
        for d in range(1, min(4, spec.m_max + 1)):
            for k in range(0, min(12, max(spec.n_max, 8)) + 1):
                yield {"d": d, "k": k}
        for m in range(0, 4):
            for n in range(2, min(10, max(spec.n_max, 4)) + 1):
                yield {"m": m, "n": n}

    return [
        IdentityEntry(
            id="golombek",
            paper_ref="B(n,k) sum vs derivative of (e^t+1)^k; closed sequences "
            "(k=0 term subtracted explicitly where the source sums from 1)",
            expected=Verdict.HOLDS_PRINTED,
            printed=printed,
            grid=grid,
        )
    ]


def _bnk_entries() -> list[IdentityEntry]:
    entries = []

    entries.append(
        IdentityEntry(
            id="CC2",
            paper_ref="B(n,k) = k! y1(n,k;1)",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                bnk(pt["m"], pt["n"]),
                factorial(pt["n"]) * y1(pt["m"], pt["n"], F1),
            ),
            grid=lambda spec: _grid(spec, use=("m", "n")),
        )
    )

    entries.append(
        IdentityEntry(
            id="Bs1",
            paper_ref="B(m,n) as a Stirling-weighted sum: "
            "sum_j C(n,j) j! 2^(n-j) S(m,j)",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                bnk(pt["m"], pt["n"]),
                sum(
                    (
                        comb(pt["n"], j)
                        * factorial(j)
                        * 2 ** (pt["n"] - j)
                        * stirling2(pt["m"], j)
                        for j in range(pt["m"] + 1)
                    ),
                    Fraction(0),
                ),
            ),
            grid=lambda spec: _grid(spec, use=("m", "n"), m_cap=10, n_cap=10),
        )
    )

    def boyadzhiev(pt):
        k, n = pt["n"], pt["m"]
        lhs = Poly([comb(k, j) * j**n for j in range(k + 1)])
        rhs = Poly()
        for j in range(min(n, k) + 1):
            rhs = rhs + (
                comb(k, j)
                * factorial(j)
                * stirling2(n, j)
                * Poly.monomial(j)
                * Poly([1, 1]) ** (k - j)
            )
        return lhs, rhs

    entries.append(
        IdentityEntry(
            id="boyadzhiev",
            paper_ref="sum_j C(k,j) j^n x^j = sum_j C(k,j) j! S(n,j) x^j (1+x)^(k-j), "
            "polynomial identity in x",
            expected=Verdict.HOLDS_PRINTED,
            printed=boyadzhiev,
            grid=lambda spec: _grid(spec, use=("m", "n"), m_cap=8, n_cap=8),
        )
    )

    entries.append(
        IdentityEntry(
            id="altStirling",
            paper_ref="sum_j (-1)^j C(k,j) j^n = (-1)^k k! S(n,k)",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                sum(
                    (
                        Fraction((-1) ** j * comb(pt["n"], j) * j ** pt["m"])
                        for j in range(pt["n"] + 1)
                    ),
                    Fraction(0),
                ),
                (-1) ** pt["n"] * factorial(pt["n"]) * stirling2(pt["m"], pt["n"]),
            ),
            grid=lambda spec: _grid(spec, use=("m", "n"), m_cap=10, n_cap=10),
        )
    )

    entries.append(
        IdentityEntry(
            id="CB1_xu",
            paper_ref="recurrence sum_v m_v B(d-v,k) = 2^(k-d) C(k,d) with "
            "m_v = s(d,d-v)/d!",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                sum(
                    (
                        stirling1(pt["d"], pt["d"] - v)
                        / factorial(pt["d"])
                        * bnk(pt["d"] - v, pt["k"])
                        for v in range(pt["d"])
                    ),
                    Fraction(0),
                ),
                Fraction(2) ** (pt["k"] - pt["d"]) * comb(pt["k"], pt["d"]),
            ),
            grid=_fixed(
                [{"d": d, "k": k} for d in range(1, 7) for k in range(13)]
            ),
        )
    )

    entries.append(
        IdentityEntry(
            id="tpoly",
            paper_ref="B(d,k) = 2^(k-d) T_d(k)",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                bnk(pt["d"], pt["k"]),
                Fraction(2) ** (pt["k"] - pt["d"]) * t_poly(pt["d"])(pt["k"]),
            ),
            grid=_fixed(
                [{"d": d, "k": k} for d in range(1, 7) for k in range(13)]
            ),
        )
    )

    def xu_x(pt):
        d = pt["d"]
        # coefficients from the Stirling formula vs interpolation of the
        # scaled values 2^(d-k) B(d,k)
        pts = [
            (Fraction(k), Fraction(2) ** (d - k) * bnk(d, k)) for k in range(d + 1)
        ]
        return t_poly(d), lagrange_poly(pts)

    entries.append(
        IdentityEntry(
            id="xu_x",
            paper_ref="T_d coefficients x_(d-l) = sum_j s(j,l) S(d,j) 2^(d-j)",
            expected=Verdict.HOLDS_PRINTED,
            printed=xu_x,
            grid=_fixed([{"d": d} for d in range(1, 7)]),
        )
    )

    entries.append(
        IdentityEntry(
            id="fd_ogf",
            paper_ref="ordinary generating function of k -> B(d,k): "
            "sum_j j! S(d,j) x^j/(1-2x)^(j+1)",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                b_ogf(pt["d"]).series(12),
                [bnk(pt["d"], k) for k in range(13)],
            ),
            grid=_fixed([{"d": d} for d in range(7)]),
        )
    )

    def cab3(pt):
        n, k, lam = pt["m"], pt["n"], pt["lam"]
        series = EgfSeries([1] + [0] * n) + EgfSeries.exp(1, n).scale(lam)
        lhs = series.scale(Fraction(1, 2)).pow(k).coeffs[n]
        return lhs, factorial(k) * Fraction(1, 2**k) * y1(n, k, lam)

    entries.append(
        IdentityEntry(
            id="Cab3",
            paper_ref="negative-order Apostol-Euler numbers: "
            "E_n^(-k)(lam) = k! 2^(-k) y1(n,k;lam)",
            expected=Verdict.HOLDS_PRINTED,
            printed=cab3,
            grid=lambda spec: _grid(
                spec, use=("m", "n", "lam"), m_cap=8, n_cap=8,
                lams=(F1, Fraction(2), FM1),
            ),
        )
    )

    entries.append(
        IdentityEntry(
            id="Caa3",
            paper_ref="E_n^(-k) = 2^(-k) B(n,k)",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                euler_poly_order(pt["m"], -pt["n"])(0),
                Fraction(1, 2 ** pt["n"]) * bnk(pt["m"], pt["n"]),
            ),
            grid=lambda spec: _grid(spec, use=("m", "n"), m_cap=8, n_cap=8),
        )
    )
    return entries


def _y6_entries() -> list[IdentityEntry]:
    entries = []

    def y6g(pt):
        n, p, lam = pt["n"], pt["p"], pt["lam"]
        order = 12
        series = y6_egf(n, lam, p, order)
        return list(series.coeffs), [y6(m, n, lam, p) for m in range(order + 1)]

    entries.append(
        IdentityEntry(
            id="y6G",
            paper_ref="EGF coefficients = m-th derivatives at 0",
            expected=Verdict.HOLDS_PRINTED,
            printed=y6g,
            grid=lambda spec: _grid(spec, use=("n", "p", "lam")),
        )
    )

    entries.append(
        IdentityEntry(
            id="y6bb",
            paper_ref="hypergeometric form: p copies of -n over p-1 ones, "
            "argument (-1)^p lam",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                y6_hyper(pt["n"], pt["lam"], pt["p"]),
                y6(0, pt["n"], pt["lam"], pt["p"]),
            ),
            grid=lambda spec: _grid(spec, use=("n", "p", "lam"), n_cap=10, p_min=1),
        )
    )

    entries.append(
        IdentityEntry(
            id="chu",
            paper_ref="Chu-Vandermonde: sum_k C(n,k)^2 = C(2n,n)",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                moment(0, 2, pt["n"]),
                Fraction(comb(2 * pt["n"], pt["n"])),
            ),
            grid=_fixed([{"n": n} for n in range(21)]),
        )
    )

    entries.append(
        IdentityEntry(
            id="dixon",
            paper_ref="Dixon special case: alternating cubes over an even row",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                franel(3, 0, 2 * pt["n"], FM1),
                Fraction(
                    (-1) ** pt["n"] * factorial(3 * pt["n"]),
                    factorial(pt["n"]) ** 3,
                ),
            ),
            grid=_fixed([{"n": n} for n in range(7)]),
        )
    )

    def cusick_sym(pt):
        m, n, p = pt["m"], pt["n"], pt["p"]
        lhs = franel(p, m, n, F1)
        rhs = sum(
            (
                Fraction((-1) ** k * comb(m, k))
                * Fraction(n) ** (m - k)
                * franel(p, k, n, F1)
                for k in range(m + 1)
            ),
            Fraction(0),
        )
        return lhs, rhs

    entries.append(
        IdentityEntry(
            id="cusick_sym",
            paper_ref="symmetry recurrence S_(n,m) = sum_k (-1)^k C(m,k) "
            "n^(m-k) S_(n,k)",
            expected=Verdict.HOLDS_PRINTED,
            printed=cusick_sym,
            grid=lambda spec: _grid(spec, use=("m", "n", "p"), m_cap=8, n_cap=8),
        )
    )

    entries.append(
        IdentityEntry(
            id="cusick_diag",
            paper_ref="printed diagonal claim S_(n,p) = n^p S_(n,0); fails "
            "as printed, no corrected form asserted",
            expected=Verdict.FAILS_BOTH,
            printed=lambda pt: (
                franel(pt["p"], pt["p"], pt["n"], F1),
                Fraction(pt["n"]) ** pt["p"] * franel(pt["p"], 0, pt["n"], F1),
            ),
            grid=lambda spec: _grid(
                spec, use=("n", "p"), n_min=1, p_min=1, n_cap=6
            ),
        )
    )

    def franel_seq(p, values, z):
        def printed(pt):
            n = pt["n"]
            lhs = (franel(p, 0, n, F1), franel(p, 0, n, F1))
            rhs = (
                Fraction(values[n]),
                pfq_terminating(PfqSpec.of([-n] * p, [1] * (p - 1), z)),
            )
            return lhs, rhs

        return printed

    entries.append(
        IdentityEntry(
            id="franel3",
            paper_ref="classical Franel numbers and their 3F2 form",
            expected=Verdict.HOLDS_PRINTED,
            printed=franel_seq(3, [1, 2, 10, 56, 346], FM1),
            grid=_fixed([{"n": n} for n in range(5)]),
        )
    )
    entries.append(
        IdentityEntry(
            id="franel4",
            paper_ref="fourth-order Franel numbers and their 4F3 form",
            expected=Verdict.HOLDS_PRINTED,
            printed=franel_seq(4, [1, 2, 18, 164, 1810], F1),
            grid=_fixed([{"n": n} for n in range(5)]),
        )
    )

    def awolf(pt):
        n = pt["n"]
        v = franel(2, 0, n, FM1)
        if n % 2:
            piecewise = Fraction(0)
        else:
            h = n // 2
            piecewise = Fraction((-1) ** h * factorial(n), factorial(h) ** 2)
        return (v, v), (alternating_square_gamma(n), piecewise)

    entries.append(
        IdentityEntry(
            id="AWolf",
            paper_ref="alternating squares: gamma closed form (1/Gamma(pole)=0) "
            "and the even/odd piecewise form",
            expected=Verdict.HOLDS_PRINTED,
            printed=awolf,
            grid=_fixed([{"n": n} for n in range(17)]),
        )
    )

    def alt3(pt):
        n = pt["n"]
        if n % 2:
            piecewise = Fraction(0)
        else:
            h = n // 2
            piecewise = Fraction((-1) ** h * factorial(3 * h), factorial(h) ** 3)
        return franel(3, 0, n, FM1), piecewise

    entries.append(
        IdentityEntry(
            id="alt3",
            paper_ref="alternating cubes: even/odd piecewise closed form",
            expected=Verdict.HOLDS_PRINTED,
            printed=alt3,
            grid=_fixed([{"n": n} for n in range(13)]),
        )
    )

    def catalan_cn(pt):
        n = pt["n"]
        cn = classic_sequence(FamilyTag.CATALAN, n)
        dn = classic_sequence(FamilyTag.DAEHEE, n)
        v = y6(0, n, F1, 2)
        lhs = (v, cn)
        rhs = ((-1) ** n * cn / dn, (-1) ** n * v * dn)
        return lhs, rhs

    entries.append(
        IdentityEntry(
            id="catalan_CN",
            paper_ref="Catalan/Daehee chain: y = (-1)^n C_n/D_n and "
            "C_n = (-1)^n y sum_k B_k s(n,k)",
            expected=Verdict.HOLDS_PRINTED,
            printed=catalan_cn,
            grid=_fixed([{"n": n} for n in range(13)]),
        )
    )

    entries.append(
        IdentityEntry(
            id="legendre_P0",
            paper_ref="Legendre at 0 via the alternating square slice and "
            "the Changhee numbers",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                (legendre(pt["n"])(0), legendre(pt["n"])(0)),
                (
                    Fraction((-1) ** pt["n"] * factorial(pt["n"]), 2 ** pt["n"])
                    * y6(0, pt["n"], FM1, 2),
                    classic_sequence(FamilyTag.CHANGHEE, pt["n"])
                    * y6(0, pt["n"], FM1, 2),
                ),
            ),
            grid=_fixed([{"n": n} for n in range(11)]),
        )
    )

    entries.append(
        IdentityEntry(
            id="legendre_P2",
            paper_ref="Legendre at 2 via the lam=3 square slice and Y_n(-1)",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                (legendre(pt["n"])(2), legendre(pt["n"])(2)),
                (
                    Fraction(factorial(pt["n"]), 2 ** pt["n"])
                    * y6(0, pt["n"], Fraction(3), 2),
                    -y_seq(pt["n"], FM1) * y6(0, pt["n"], Fraction(3), 2),
                ),
            ),
            grid=_fixed([{"n": n} for n in range(11)]),
        )
    )

    entries.append(
        IdentityEntry(
            id="changhee_theorem",
            paper_ref="P_n(0) = y6-slice times sum_k s(n,k) E_k(0)",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                legendre(pt["n"])(0),
                y6(0, pt["n"], FM1, 2)
                * sum(
                    (
                        stirling1(pt["n"], k) * euler_number0(k)
                        for k in range(pt["n"] + 1)
                    ),
                    Fraction(0),
                ),
            ),
            grid=_fixed([{"n": n} for n in range(11)]),
        )
    )
    return entries


def _p_poly_entries() -> list[IdentityEntry]:
    entries = []

    entries.append(
        IdentityEntry(
            id="Yp1Yp2_bridge",
            paper_ref="the two defining forms of the polynomial family; the "
            "printed pair omits the 1/n!",
            expected=Verdict.HOLDS_CORRECTED_ONLY,
            printed=lambda pt: (
                p_poly(pt["m"], pt["n"], pt["lam"], pt["p"]),
                raw_sum_poly(pt["m"], pt["n"], pt["lam"], pt["p"]),
            ),
            corrected=lambda pt: (
                factorial(pt["n"]) * p_poly(pt["m"], pt["n"], pt["lam"], pt["p"]),
                raw_sum_poly(pt["m"], pt["n"], pt["lam"], pt["p"]),
            ),
            grid=lambda spec: _grid(spec, use=("m", "n", "p", "lam"), p_cap=3),
        )
    )

    def py6a_printed(pt):
        m, n, p, lam = pt["m"], pt["n"], pt["p"], pt["lam"]
        base = p_poly(m, n, lam, p)
        lhs, rhs = [], []
        d = base
        for k in range(1, m + 1):
            d = d.derivative()
            lhs.append(d)
            fall = Fraction(1)
            for i in range(k):
                fall *= n - i
            rhs.append(fall * p_poly(m - k, n, lam, p))
        return lhs, rhs

    def py6a_corrected(pt):
        m, n, p, lam = pt["m"], pt["n"], pt["p"], pt["lam"]
        base = p_poly(m, n, lam, p)
        lhs, rhs = [], []
        d = base
        for k in range(1, m + 1):
            d = d.derivative()
            lhs.append(d)
            fall = Fraction(1)
            for i in range(k):
                fall *= m - i
            rhs.append(fall * p_poly(m - k, n, lam, p))
        return lhs, rhs

    entries.append(
        IdentityEntry(
            id="py6a",
            paper_ref="k-fold x-derivative; printed uses the falling factorial "
            "of n, the derivation forces the falling factorial of m",
            expected=Verdict.HOLDS_CORRECTED_ONLY,
            printed=py6a_printed,
            corrected=py6a_corrected,
            grid=lambda spec: _grid(
                spec, use=("m", "n", "p", "lam"), m_min=1, p_cap=3
            ),
        )
    )

    entries.append(
        IdentityEntry(
            id="py6ab",
            paper_ref="t-derivative recurrence for the polynomial family",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                p_poly(pt["m"] + 1, pt["n"], pt["lam"], pt["p"])
                - Poly.x() * p_poly(pt["m"], pt["n"], pt["lam"], pt["p"]),
                Poly(
                    [
                        comb(pt["m"], pt["m"] - i)
                        * y6(pt["m"] - i + 1, pt["n"], pt["lam"], pt["p"])
                        for i in range(pt["m"] + 1)
                    ]
                ),
            ),
            grid=lambda spec: _grid(spec, use=("m", "n", "p", "lam"), p_cap=3),
        )
    )

    entries.append(
        IdentityEntry(
            id="inP1",
            paper_ref="Riemann integral over [0,1], coefficient form",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                poly_integral01(p_poly(pt["m"], pt["n"], pt["lam"], pt["p"])),
                sum(
                    (
                        comb(pt["m"], k)
                        * y6(k, pt["n"], pt["lam"], pt["p"])
                        / (pt["m"] - k + 1)
                        for k in range(pt["m"] + 1)
                    ),
                    Fraction(0),
                ),
            ),
            grid=lambda spec: _grid(spec, use=("m", "n", "p", "lam"), p_cap=3),
        )
    )

    def _inP2_rhs(pt, exponent_plus_one: bool, normalized: bool) -> Fraction:
        m, n, p, lam = pt["m"], pt["n"], pt["p"], pt["lam"]
        e = m + 1 if exponent_plus_one else m
        total = Fraction(0)
        lj = Fraction(1)
        for j in range(n + 1):
            total += (
                Fraction(comb(n, j)) ** p
                * lj
                * (Fraction(1 + j) ** e - Fraction(j) ** e)
            )
            lj *= lam
        total /= m + 1
        if normalized:
            total /= factorial(n)
        return total

    entries.append(
        IdentityEntry(
            id="inP2",
            paper_ref="Riemann integral, summation form; printed drops both "
            "the 1/n! and the +1 in the exponent",
            expected=Verdict.HOLDS_CORRECTED_ONLY,
            printed=lambda pt: (
                poly_integral01(p_poly(pt["m"], pt["n"], pt["lam"], pt["p"])),
                _inP2_rhs(pt, exponent_plus_one=False, normalized=False),
            ),
            corrected=lambda pt: (
                poly_integral01(p_poly(pt["m"], pt["n"], pt["lam"], pt["p"])),
                _inP2_rhs(pt, exponent_plus_one=True, normalized=True),
            ),
            grid=lambda spec: _grid(spec, use=("m", "n", "p", "lam"), p_cap=3),
        )
    )

    entries.append(
        IdentityEntry(
            id="inP8",
            paper_ref="equating the two integral forms; the corrected content "
            "is the term identity C(m+1,l)/(m+1) = C(m,l)/(m-l+1)",
            expected=Verdict.HOLDS_CORRECTED_ONLY,
            printed=lambda pt: (
                sum(
                    (
                        comb(pt["m"], k)
                        * y6(k, pt["n"], pt["lam"], pt["p"])
                        / (pt["m"] - k + 1)
                        for k in range(pt["m"] + 1)
                    ),
                    Fraction(0),
                ),
                _inP2_rhs(pt, exponent_plus_one=False, normalized=False),
            ),
            corrected=lambda pt: (
                [
                    Fraction(comb(pt["m"] + 1, l), pt["m"] + 1)
                    for l in range(pt["m"] + 1)
                ],
                [
                    Fraction(comb(pt["m"], l)) / (pt["m"] - l + 1)
                    for l in range(pt["m"] + 1)
                ],
            ),
            grid=lambda spec: _grid(spec, use=("m", "n", "p", "lam"), p_cap=3),
        )
    )

    def inP8a_printed(pt):
        m, n, p, lam = pt["m"], pt["n"], pt["p"], pt["lam"]
        lhs = sum(
            (
                comb(m, k) * Fraction(m + 1, m - k + 1) * y6(k, n, lam, p)
                for k in range(m + 1)
            ),
            Fraction(0),
        )
        rhs = Fraction(0)
        lj = Fraction(1)
        for j in range(n + 1):
            inner = sum(
                (comb(m, l) * Fraction(j) ** l for l in range(m)), Fraction(0)
            )
            rhs += Fraction(comb(n, j)) ** p * lj * inner
            lj *= lam
        return lhs, rhs

    def inP8a_corrected(pt):
        m, n, p, lam = pt["m"], pt["n"], pt["p"], pt["lam"]
        lhs = sum(
            (
                comb(m, k) * Fraction(m + 1, m - k + 1) * y6(k, n, lam, p)
                for k in range(m + 1)
            ),
            Fraction(0),
        )
        rhs = Fraction(0)
        lj = Fraction(1)
        for j in range(n + 1):
            inner = sum(
                (comb(m + 1, l) * Fraction(j) ** l for l in range(m + 1)),
                Fraction(0),
            )
            rhs += Fraction(comb(n, j)) ** p * lj * inner
            lj *= lam
        return lhs, rhs / factorial(n)

    entries.append(
        IdentityEntry(
            id="inP8a",
            paper_ref="expanded integral identity; corrected form restores the "
            "1/n! and the full inner sum with C(m+1,l)",
            expected=Verdict.HOLDS_CORRECTED_ONLY,
            printed=inP8a_printed,
            corrected=inP8a_corrected,
            grid=lambda spec: _grid(spec, use=("m", "n", "p", "lam"), p_cap=3),
        )
    )

    entries.append(
        IdentityEntry(
            id="P1_corollary",
            paper_ref="value at x=1; printed mixes normalizations and fails, "
            "the corrected statement is the x=1 evaluation of the "
            "coefficient form",
            expected=Verdict.HOLDS_CORRECTED_ONLY,
            printed=lambda pt: (
                p_poly(pt["m"], pt["n"], pt["lam"], pt["p"])(1),
                Fraction(pt["m"] + 1, factorial(pt["n"]))
                * sum(
                    (
                        comb(pt["m"], k)
                        * y6(k, pt["n"], pt["lam"], pt["p"])
                        / (pt["m"] - k + 1)
                        for k in range(pt["m"] + 1)
                    ),
                    Fraction(0),
                )
                + y6(pt["m"], pt["n"], pt["lam"], pt["p"]),
            ),
            corrected=lambda pt: (
                p_poly(pt["m"], pt["n"], pt["lam"], pt["p"])(1),
                sum(
                    (
                        comb(pt["m"], k) * y6(k, pt["n"], pt["lam"], pt["p"])
                        for k in range(pt["m"] + 1)
                    ),
                    Fraction(0),
                ),
            ),
            grid=lambda spec: _grid(spec, use=("m", "n", "p", "lam"), p_cap=3),
        )
    )

    def _padic_entry(
        entry_id: str, ref: str, functional, poly_value
    ) -> IdentityEntry:
        def summ(pt, normalized: bool):
            m, n, p, lam = pt["m"], pt["n"], pt["p"], pt["lam"]
            total = Fraction(0)
            lj = Fraction(1)
            for j in range(n + 1):
                total += Fraction(comb(n, j)) ** p * lj * poly_value(m, j)
                lj *= lam
            return total / factorial(n) if normalized else total

        def printed(pt):
            m, n, p, lam = pt["m"], pt["n"], pt["p"], pt["lam"]
            lhs = functional(p_poly(m, n, lam, p))
            return lhs, summ(pt, normalized=False)

        def corrected(pt):
            m, n, p, lam = pt["m"], pt["n"], pt["p"], pt["lam"]
            lhs = functional(p_poly(m, n, lam, p))
            return lhs, summ(pt, normalized=True)

        return IdentityEntry(
            id=entry_id,
            paper_ref=ref,
            expected=Verdict.HOLDS_CORRECTED_ONLY,
            printed=printed,
            corrected=corrected,
            grid=lambda spec: _grid(spec, use=("m", "n", "p", "lam"), p_cap=3),
        )

    entries.append(
        _padic_entry(
            "inP3_4",
            "Bernoulli-moment functional of the polynomial family; printed "
            "right side lacks the 1/n!",
            volkenborn,
            lambda m, j: bernoulli_poly(m)(j),
        )
    )
    entries.append(
        _padic_entry(
            "inP5_6",
            "Euler-moment functional of the polynomial family; printed right "
            "side lacks the 1/n!",
            fermionic,
            lambda m, j: euler_poly(m)(j),
        )
    )

    def mf_printed(pt):
        m, n, x0, u = pt["m"], pt["n"], pt["x0"], pt["lam"]
        lhs = sum(
            (u**j * (x0 + j) ** m for j in range(n)), Fraction(0)
        )
        h = frobenius_euler(m, 1 / u)
        rhs = (u**n * h(x0 + n) - h(x0 + n)) / (u - 1)
        return lhs, rhs

    def mf_corrected(pt):
        m, n, x0, u = pt["m"], pt["n"], pt["x0"], pt["lam"]
        lhs = sum(
            (u**j * (x0 + j) ** m for j in range(n)), Fraction(0)
        )
        return lhs, mirimanoff_frobenius_sum(m, n, x0, u)

    entries.append(
        IdentityEntry(
            id="mirimanoff_frobenius",
            paper_ref="geometric power sum via Frobenius-Euler polynomials; "
            "printed repeats the shifted argument in both terms",
            expected=Verdict.HOLDS_CORRECTED_ONLY,
            printed=mf_printed,
            corrected=mf_corrected,
            grid=lambda spec: (
                {"m": m, "n": n, "x0": x0, "lam": lam}
                for m in range(min(spec.m_max, 6) + 1)
                for n in range(1, min(spec.n_max, 6) + 1)
                for x0 in (Fraction(0), Fraction(1), Fraction(1, 2))
                for lam in spec.lambdas
            ),
            singular=lambda pt: (
                "closed form undefined at u in {0, 1}"
                if pt["lam"] in (0, 1)
                else None
            ),
        )
    )

    entries.append(
        IdentityEntry(
            id="apostol_powersum",
            paper_ref="geometric power sum via Apostol-Bernoulli polynomials; "
            "printed exponent lam^m instead of lam^N",
            expected=Verdict.HOLDS_CORRECTED_ONLY,
            printed=lambda pt: (
                direct_power_sum(pt["m"] - 1, pt["n"], pt["lam"]),
                (
                    pt["lam"] ** pt["m"]
                    * apostol_bernoulli(pt["m"], pt["lam"])(pt["n"])
                    - apostol_bernoulli(pt["m"], pt["lam"])(0)
                )
                / pt["m"],
            ),
            corrected=lambda pt: (
                direct_power_sum(pt["m"] - 1, pt["n"], pt["lam"]),
                power_sum_closed(pt["m"] - 1, pt["n"], pt["lam"]),
            ),
            grid=lambda spec: _grid(
                spec, use=("m", "n", "lam"), m_min=1, n_min=1
            ),
            singular=lambda pt: (
                "Apostol-Bernoulli closed form undefined at lambda = 1"
                if pt["lam"] == 1
                else None
            ),
        )
    )

    entries.append(
        IdentityEntry(
            id="faulhaber",
            paper_ref="classical power-sum formula via Bernoulli polynomials",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                direct_power_sum(pt["m"] - 1, pt["n"], F1),
                (bernoulli_poly(pt["m"])(pt["n"]) - bernoulli_poly(pt["m"])(0))
                / pt["m"],
            ),
            grid=lambda spec: _grid(
                spec, use=("m", "n"), m_min=1, n_min=1, n_cap=12
            ),
        )
    )

    entries.append(
        IdentityEntry(
            id="alt_euler_sum",
            paper_ref="alternating power sum via Euler polynomials; printed "
            "form has a sign slip and a degree off by one",
            expected=Verdict.HOLDS_CORRECTED_ONLY,
            printed=lambda pt: (
                direct_power_sum(pt["m"] - 1, pt["n"], FM1),
                (
                    (-1) ** (pt["n"] - 1) * euler_poly(pt["m"])(pt["n"])
                    - euler_poly(pt["m"])(0)
                )
                / 2,
            ),
            corrected=lambda pt: (
                direct_power_sum(pt["m"], pt["n"], FM1),
                power_sum_closed(pt["m"], pt["n"], FM1),
            ),
            grid=lambda spec: _grid(
                spec, use=("m", "n"), m_min=1, n_min=1, n_cap=12
            ),
        )
    )
    return entries


def _sec6_entries() -> list[IdentityEntry]:
    entries = []

    def stirling_form(pt):
        m, n, p, lam = pt["m"], pt["n"], pt["p"], pt["lam"]
        rhs = Fraction(0)
        for k in range(n + 1):
            for l in range(k + 1):
                rhs += (
                    Fraction(comb(n, k)) ** (p - 1)
                    * stirling2(m, l)
                    * lam**k
                    / (factorial(n - k) * factorial(k - l))
                )
        return y6(m, n, lam, p), rhs

    entries.append(
        IdentityEntry(
            id="sec6_stirling",
            paper_ref="double-sum expression through second-kind Stirling "
            "numbers and factorial weights",
            expected=Verdict.HOLDS_PRINTED,
            printed=stirling_form,
            grid=lambda spec: _grid(
                spec, use=("m", "n", "p", "lam"), p_min=1, p_cap=3
            ),
        )
    )

    def bernoulli_form(pt):
        m, n, p, lam = pt["m"], pt["n"], pt["p"], pt["lam"]
        rhs = Fraction(0)
        polys = {
            d: bernoulli_poly_order(d, n) for d in range(m + n + 1)
        }
        for k in range(n + 1):
            ck = Fraction(comb(n, k)) ** p * lam**k
            for v in range(m + n + 1):
                rhs += (
                    ck
                    * comb(m + n, v)
                    * stirling2(v, n)
                    * polys[m + n - v](k)
                    / (comb(m + n, n) * factorial(n))
                )
        return y6(m, n, lam, p), rhs

    entries.append(
        IdentityEntry(
            id="sec6_bernoulli",
            paper_ref="double-sum expression through order-n Bernoulli "
            "polynomials; the dangling summation symbol is bound to "
            "the binomial index",
            expected=Verdict.HOLDS_PRINTED,
            printed=bernoulli_form,
            grid=lambda spec: _grid(
                spec,
                use=("m", "n", "p", "lam"),
                m_cap=5,
                n_cap=5,
                p_cap=2,
                lams=(FM1, F1, Fraction(2)),
            ),
        )
    )

    def euler_form(pt):
        m, n, p, lam = pt["m"], pt["n"], pt["p"], pt["lam"]
        rhs = Fraction(0)
        polys = {d: euler_poly_order(d, n) for d in range(m + 1)}
        for k in range(n + 1):
            ck = Fraction(comb(n, k)) ** p * lam**k
            for v in range(m + 1):
                rhs += ck * comb(m, v) * bnk(v, n) * polys[m - v](k)
        rhs /= factorial(n) * 2**n
        return y6(m, n, lam, p), rhs

    entries.append(
        IdentityEntry(
            id="sec6_euler",
            paper_ref="double-sum expression through order-n Euler polynomials "
            "and the B(v,n) weights; dangling index bound as above",
            expected=Verdict.HOLDS_PRINTED,
            printed=euler_form,
            grid=lambda spec: _grid(
                spec,
                use=("m", "n", "p", "lam"),
                m_cap=5,
                n_cap=5,
                p_cap=2,
                lams=(FM1, F1, Fraction(2)),
            ),
        )
    )
    return entries


def _operator_and_ogf_entries() -> list[IdentityEntry]:
    entries = []

    entries.append(
        IdentityEntry(
            id="yp3_euler_operator",
            paper_ref="m-th iterate of x d/dx on the coefficient polynomial, "
            "evaluated at lam",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                euler_operator(r_poly(pt["n"], pt["p"]), pt["m"])(pt["lam"]),
                y6(pt["m"], pt["n"], pt["lam"], pt["p"]),
            ),
            grid=lambda spec: _grid(
                spec, use=("m", "n", "p", "lam"), m_min=1, m_cap=6, p_cap=3
            ),
        )
    )

    entries.append(
        IdentityEntry(
            id="vowe_recurrence",
            paper_ref="three-term recurrence for the squared-binomial "
            "polynomial family",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                vowe(pt["n"] + 1),
                Fraction(2 * pt["n"] + 1, pt["n"] + 1)
                * Poly([1, 1])
                * vowe(pt["n"])
                - Fraction(pt["n"], pt["n"] + 1)
                * Poly([1, -1]) ** 2
                * vowe(pt["n"] - 1),
            ),
            grid=_fixed([{"n": n} for n in range(1, 10)]),
        )
    )

    def vowe_legendre(pt):
        n = pt["n"]
        a = legendre(n).coeffs
        acc = Poly()
        for k, ak in enumerate(a):
            acc = acc + ak * Poly([1, 1]) ** k * Poly([1, -1]) ** (n - k)
        return vowe(n), acc

    entries.append(
        IdentityEntry(
            id="vowe_legendre",
            paper_ref="substitution bridge to the Legendre polynomials",
            expected=Verdict.HOLDS_PRINTED,
            printed=vowe_legendre,
            grid=_fixed([{"n": n} for n in range(11)]),
        )
    )

    def ogf(entry_id, case, ref, needs_lam, singular_lam=None):
        def printed(pt):
            lam = pt.get("lam")
            return (
                ogf_series(case, lam, 8),
                ogf_reference(case, lam if needs_lam else None, 8),
            )

        def grid(spec):
            if needs_lam:
                return iter([{"lam": lam} for lam in spec.lambdas])
            return iter([{}])

        return IdentityEntry(
            id=entry_id,
            paper_ref=ref,
            expected=Verdict.HOLDS_PRINTED,
            printed=printed,
            grid=grid,
            singular=lambda pt: (
                f"ordinary closed form singular at lambda = {singular_lam}"
                if singular_lam is not None and pt.get("lam") == singular_lam
                else None
            ),
        )

    entries.append(
        ogf(
            "ogf_00",
            OgfCase.LAM_P0,
            "p=0 ordinary closed form (lam e^(lam t) - e^t)/(lam - 1)",
            True,
            singular_lam=F1,
        )
    )
    entries.append(
        ogf("ogf_01", OgfCase.LAM_P1, "p=1 ordinary closed form e^((lam+1)t)", True)
    )

    def ogf_12(pt):
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
        ratio = [
            Fraction(factorial(2 * n), factorial(n) ** 3) for n in range(order + 1)
        ]
        return (closed, closed, closed, closed), (ref, hyper, catalan, ratio)

    entries.append(
        IdentityEntry(
            id="ogf_12",
            paper_ref="four equivalent forms of the lam=1, p=2 ordinary "
            "generating function",
            expected=Verdict.HOLDS_PRINTED,
            printed=ogf_12,
            grid=_fixed([{}]),
        )
    )

    entries.append(
        IdentityEntry(
            id="ogf_m12",
            paper_ref="lam=-1, p=2 ordinary generating function via the gamma "
            "closed form with 1/Gamma(pole)=0",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda pt: (
                ogf_series(OgfCase.MINUS1_P2, None, 12),
                ogf_reference(OgfCase.MINUS1_P2, None, 12),
            ),
            grid=_fixed([{}]),
        )
    )
    return entries


def build_registry() -> list[IdentityEntry]:
    entries = (
        _golombek_entries()
        + _bnk_entries()
        + _y6_entries()
        + _p_poly_entries()
        + _sec6_entries()
        + _operator_and_ogf_entries()
    )
    ids = [e.id for e in entries]
    if len(ids) != len(set(ids)):
        raise RuntimeError("duplicate registry ids")
    return entries
