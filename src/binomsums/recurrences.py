"""Certified recurrences in n for the binomial-power sums of ``y6_engine``.

For f_n(x) = sum_k C(n,k)^p x^k, each ``TelescopingRow`` stores a
telescoper sum_{i=0}^{r} c_i(n, x) f_{n+i}(x) = 0 with its
creative-telescoping certificate (Zeilberger 1991; Petkovšek, Wilf and
Zeilberger, *A = B*, 1996).  With F(n,k) = C(n,k)^p x^k, G = R F and

    R(n,k) = k^p A(n,k,x) / prod_{j=1}^{s} (n+j-k)^p,   s = span >= r,

the certificate proves sum_i c_i(n,x) F(n+i,k) = G(n,k+1) - G(n,k).  Put
H(n,k) = x^k [n! / (k! (n+s-k)!)]^p.  For 0 <= k <= n+s,
F(n+i,k) = H prod_{j<=i} (n+j)^p prod_{i<j<=s} (n+j-k)^p, G(n,k) = H k^p A(n,k)
and G(n,k+1) = H x (n+s-k)^p A(n,k+1), so the claim is the polynomial identity

    sum_i c_i(n,x) prod_{j<=i} (n+j)^p prod_{i<j<=s} (n+j-k)^p
        = x (n+s-k)^p A(n,k+1,x) - k^p A(n,k,x)

that ``check_certificate`` checks in integers.  Summing it times H over
k = 0..n+s telescopes to G(n,n+s+1) - G(n,0) = 0: the first vanishes with
1/(n+s-k)!, the second with k^p.  So the telescoper holds for every n >= 0.

A row holds for every x (``x`` is None) or at one x only.  The rows:

- p = 3 and p = 4 at x = 1: Franel's recurrences (1894, 1895);
- p = 1, 2 and 3 for every x, so one row serves every lam.

Every lead c_r is free of x and positive for n >= 0.  The rows are plain
int tuples and nothing is computed at import; the certificates were found
by solving the identity above for A and the c_i with undetermined
coefficients, and tests/test_sympy_oracle.py re-derives some of them.

``unroll`` turns a row into the kernel's integers
T_{j,n} = b^n theta^j f_n(a/b) = n! b^n y6(j,n;a/b,p), theta = x d/dx: the
j-th theta-derivative of the telescoper, sum_i sum_s C(j,s) (theta^s c_i)
(theta^{j-s} f_{n+i}) = 0, gives T_{j,n+r} from the r columns before it and
from T_{s,n+r}, s < j.  The caller passes the seed columns, so this module
imports nothing from the package.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import comb, prod
from operator import mul
from typing import Iterator, NamedTuple

__all__ = ["TelescopingRow", "ROWS", "check_certificate", "row_for", "unroll"]


class TelescopingRow(NamedTuple):
    """A telescoper for sum_k C(n,k)^p x^k and its certificate.

    ``telescoper[i][e][d]`` is the coefficient of x^e n^d in c_i;
    ``certificate[e][h][d]`` that of x^e k^h n^d in A.  ``x`` is None when
    the row holds for every x, else the one x at which it holds.
    """

    p: int
    x: int | None
    span: int
    telescoper: tuple
    certificate: tuple


# The rows at one x come first: ``row_for`` takes the first that fits.
ROWS = (
    TelescopingRow(
        p=3,
        x=1,
        span=2,
        telescoper=(((-8, -16, -8),), ((-16, -21, -7),), ((4, 4, 1),)),
        certificate=(
            (
                (-72, -272, -402, -290, -102, -14),
                (78, 249, 291, 147, 27),
                (-30, -78, -66, -18),
                (4, 8, 4),
            ),
        ),
    ),
    TelescopingRow(
        p=4,
        x=1,
        span=2,
        telescoper=(
            ((-60, -188, -192, -64),),
            ((-42, -82, -54, -12),),
            ((8, 12, 6, 1),),
        ),
        certificate=(
            (
                (-1080, -5380, -11330, -13075, -8930, -3610, -800, -75),
                (2256, 9776, 17412, 16312, 8476, 2316, 260),
                (-1980, -7302, -10620, -7612, -2688, -374),
                (900, 2744, 3088, 1520, 276),
                (-210, -508, -402, -104),
                (20, 36, 16),
            ),
        ),
    ),
    TelescopingRow(
        p=1,
        x=None,
        span=1,
        telescoper=(((-1,), (-1,)), ((1,),)),
        certificate=(((-1,),),),
    ),
    TelescopingRow(
        p=2,
        x=None,
        span=2,
        telescoper=(((1, 1), (-2, -2), (1, 1)), ((-3, -2), (-3, -2)), ((2, 1),)),
        certificate=(
            ((-10, -23, -17, -4), (6, 10, 4), (-1, -1)),
            ((4, 8, 5, 1), (-4, -6, -2), (1, 1)),
        ),
    ),
    TelescopingRow(
        p=3,
        x=None,
        span=3,
        telescoper=(
            (
                (-7, -17, -13, -3),
                (-21, -51, -39, -9),
                (-21, -51, -39, -9),
                (-7, -17, -13, -3),
            ),
            ((45, 82, 48, 9), (-330, -583, -336, -63), (45, 82, 48, 9)),
            ((-74, -116, -57, -9), (-74, -116, -57, -9)),
            ((36, 51, 22, 3),),
        ),
        certificate=(
            (
                (-13572, -75738, -183578, -253563, -219932, -124269, -45770, -10605,
                 -1404, -81),
                (18369, 93063, 201384, 242994, 178806, 82197, 23070, 3618, 243),
                (-11694, -52974, -100221, -102600, -61392, -21486, -4077, -324),
                (4365, 17402, 28068, 23433, 10688, 2529, 243),
                (-987, -3405, -4533, -2907, -900, -108),
                (126, 369, 387, 171, 27),
                (-7, -17, -13, -3),
            ),
            (
                (-3132, -14634, -28962, -31706, -21018, -8654, -2166, -302, -18),
                (9369, 41778, 78270, 80358, 49428, 18654, 4218, 522, 27),
                (-10116, -41712, -70812, -64092, -33420, -10056, -1620, -108),
                (5408, 20208, 30164, 22988, 9444, 1988, 168),
                (-1554, -5160, -6546, -3954, -1140, -126),
                (231, 666, 684, 294, 45),
                (-14, -34, -26, -6),
            ),
            (
                (-1512, -7452, -15894, -19289, -14710, -7325, -2386, -491, -58,
                 -3),
                (3780, 16992, 32397, 34287, 22092, 8898, 2193, 303, 18),
                (-3906, -15891, -26715, -24105, -12654, -3879, -645, -45),
                (2135, 7789, 11339, 8441, 3406, 710, 60),
                (-651, -2106, -2589, -1509, -420, -45),
                (105, 297, 297, 123, 18),
                (-7, -17, -13, -3),
            ),
        ),
    ),
)


def _at(poly: tuple, point: tuple[int, ...]) -> int:
    """A nested coefficient tuple at an integer point, outermost variable
    first, by Horner in each variable."""
    v, rest = point[0], point[1:]
    acc = 0
    for c in reversed(poly):
        acc = acc * v + (_at(c, rest) if rest else c)
    return acc


def _degrees(poly: tuple) -> list[int]:
    """Degree bound in each variable of a nested tuple: its length less one,
    the largest over its entries for an inner variable."""
    if not poly or type(poly[0]) is int:
        return [len(poly) - 1]
    inner = [_degrees(c) for c in poly]
    return [len(poly) - 1] + [max(d) for d in zip(*inner)]


def _values(q: list[int]) -> Iterator[int]:
    """q(0), q(1), q(2), ... for a polynomial q in n, by Newton's forward
    differences: each value costs one addition per degree, inside
    ``itertools.accumulate``."""
    column = [_at(q, (n,)) for n in range(len(q))]
    heads = []  # Delta^t q(0)
    while column:
        heads.append(column[0])
        column = [y - x for x, y in zip(column, column[1:])]
    values = repeat(heads.pop())
    for head in reversed(heads):
        values = accumulate(values, initial=head)
    return values


def _theta(c: tuple, s: int, a: int, b: int, power: int) -> list[int]:
    """The coefficients in n of b^power (theta^s c)(n, a/b), theta = x d/dx,
    for c[e][t] the coefficient of x^e n^t with e <= power: theta^s maps
    x^e to e^s x^e, and b^power x^e at x = a/b is a^e b^(power-e)."""
    q = [0] * max(map(len, c))
    for e, ce in enumerate(c):
        w = e**s * a**e * b ** (power - e)
        for t, v in enumerate(ce):
            q[t] += w * v
    return q


def check_certificate(row: TelescopingRow) -> bool:
    """Whether the row's certificate proves its telescoper for every n >= 0,
    at every x or at ``row.x``.

    The identity of the module docstring, cleared of denominators, is a
    polynomial in (n, k, x); it vanishes when it vanishes on a grid one
    larger than its degree in each variable.  A row with p < 1 (no factor
    k^p for G(n,0) = 0) or a span below its order is refused.
    """
    p, s, cs, cert = row.p, row.span, row.telescoper, row.certificate
    r = len(cs) - 1
    if p < 1 or s < r:
        return False
    c_x, c_n = (max(d) for d in zip(*map(_degrees, cs)))
    a_x, a_k, a_n = _degrees(cert)
    xs = range(max(c_x, a_x + 1) + 1) if row.x is None else (row.x,)
    for x in xs:
        for k in range(max(s * p, a_k + p) + 1):
            for n in range(max(c_n + s * p, a_n + p) + 1):
                lhs = sum(
                    _at(c, (x, n))
                    * prod(range(n + 1, n + i + 1)) ** p
                    * prod(range(n + i + 1 - k, n + s + 1 - k)) ** p
                    for i, c in enumerate(cs)
                )
                rhs = x * (n + s - k) ** p * _at(cert, (x, k + 1, n))
                if lhs != rhs - k**p * _at(cert, (x, k, n)):
                    return False
    return True


def row_for(p: int, m: int, a: int, b: int) -> TelescopingRow | None:
    """The row that unrolls T_{m,n} at x = a/b, or None: a row at one x
    serves m = 0 only, since theta needs the identity for every x."""
    for row in ROWS:
        if row.p == p and (row.x is None or (m == 0 and (a, b) == (row.x, 1))):
            return row
    return None


def unroll(
    row: TelescopingRow, m: int, a: int, b: int, seeds: list, rng: range
) -> Iterator[int]:
    """T_{m,n} = n! b^n y6(m,n;a/b,row.p) for n in rng, a step-1 range
    from n >= 0, in O(rng.stop) steps of the row.

    ``seeds[n][j]`` is T_{j,n} for n below the row's order r and j <= m.
    Only r columns of m + 1 terms are live, and terms are yielded from
    ``rng.start``.  Each new term is a division that must be exact; one
    that is not raises ``ArithmeticError``.
    """
    if row.x is not None and (m, a, b) != (0, row.x, 1):
        raise ValueError(f"the row holds at x = {row.x} and m = 0 only")
    cs = row.telescoper
    r = len(cs) - 1
    d = max(map(len, cs)) - 1
    # Each step reads the values at n of one polynomial per term: first the
    # lead b^(d+r) c_r, negated, then the terms of equation j = 0..m, each
    # C(j,s) b^(d+r-i) (theta^s c_i) with the index in ``live`` of
    # T_{j-s,n+i}; b^(r-i) lifts f_{n+i} to T_{.,n+i}, and a theta^s c_i
    # that is 0 gives no term.  ``live`` holds T_{j,n+i} at i (m+1) + j for
    # i < r, and then the column n + r as it is found.
    polys = [[-v for v in _theta(cs[r], 0, a, b, d)]]
    plan = []
    for j in range(m + 1):
        index = []
        for i, c in enumerate(cs):
            for s in range(j + 1):
                q = _theta(c, s, a, b, d + r - i)
                if (i < r or s) and any(q):
                    polys.append([comb(j, s) * v for v in q])
                    index.append(i * (m + 1) + j - s)
        plan.append((len(polys) - len(index), len(polys), index))
    live = [t for col in seeds for t in col]
    term_at = live.__getitem__
    values = zip(*map(_values, polys))
    for n in range(rng.stop):
        if n + r < rng.stop:
            ks = next(values)
            for lo, hi, index in plan:
                acc = sum(map(mul, ks[lo:hi], map(term_at, index)))
                term, rem = divmod(acc, ks[0])
                if rem:
                    raise ArithmeticError(
                        f"recurrence for p = {row.p} is not exact at n = {n + r}"
                    )
                live.append(term)
        if n >= rng.start:
            yield live[m]
        del live[: m + 1]
