"""Truncated hypergeometric sums, exact and modular, plus a terminating
two-balanced series identity and its root-of-unity specialization.

Series are evaluated by the term ratio

    t_{k+1} = t_k * prod(a_i + k) / (prod(b_j + k) * (k+1)) * z,

never by rebuilding Pochhammers, so an n-term truncation costs O(n) ring
operations.  The exact routes split each entry once, by _split, into r / s
with integer (coordinates of) r, multiply only integers, and divide once at
the end.  pfq_exact carries the term and the sum as numerators over one
shared denominator: plain ints over Q, and int coordinate pairs (c0, c1)
multiplied by arith._zw_mul once any entry or z is in Q(w), so the only
CycloElem it builds is its result.  _rising runs on the same two rings, so
pochhammer and gs_rhs multiply plain ints over Q, and int pairs once a Q(w)
factor is present; gs_rhs multiplies its eight products crosswise and
divides once, by Fraction or by _zw_div.  pfq_mod forms each term ratio's
numerator and denominator as two integer products, embeds them once
(PadicCapped.from_ratio: p stripped from each, the unit num * den^-1 mod
p^k), and returns the sum's class mod p^k as a plain int in [0, p^k).  A
zero among the upper factors kills every later term (the series has
terminated); a zero among the lower factors while terms are still live is a
genuine pole and raises PoleInRange.  The dead-series check runs first,
so a terminating series with a harmless lower zero beyond its support still
evaluates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm, prod
from typing import Union

from .arith import (
    CycloElem,
    PadicCapped,
    check_odd_prime,
    least_residue,
    _as_fraction,
    _check_precision,
    _coordinates,
    _zw_div,
    _zw_mul,
)
from .errors import AlphaOutOfRange, PoleInRange

Param = Union[int, Fraction, CycloElem]


def _split(x: Param) -> tuple:
    """x as (r, s) with x = r / s: s a positive int, r an int or a
    CycloElem with int coordinates, so that x + j = (r + j*s) / s."""
    if isinstance(x, CycloElem):
        s = lcm(x.c0.denominator, x.c1.denominator)
        return CycloElem(int(x.c0 * s), int(x.c1 * s)), s
    return x.numerator, x.denominator


def _rising(x: Param, n: int, ring: tuple) -> tuple:
    """(x)_n as (product of the r + j*s in ring, s**n) for ring's split of x
    as (r, s)."""
    split, column, product = ring[:3]
    r, s = split(x)
    return product(column(r, s, n), start=split(1)[0]), s**n


def pochhammer(x: Param, n: int) -> Param:
    """Rising factorial x(x+1)...(x+n-1), exactly: _rising's one quotient."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    if not isinstance(x, CycloElem):
        return Fraction(*_rising(x, n, _Q_RING))
    if n == 0:
        return Fraction(1)
    top, bottom = _rising(x, n, _PAIR_RING)
    return CycloElem(*_zw_div(*top, bottom, 0))


def _param(x: Param) -> Param:
    """A series entry: ints become Fraction; Fraction and CycloElem stay."""
    return x if isinstance(x, CycloElem) else _as_fraction(x)


@dataclass(frozen=True)
class PfqSpec:
    """Parameters of a truncated series: sum_{k=0}^{n} of the usual term.

    Upper and lower entries and z are rationals or CycloElem elements; each
    keeps its kind.  The implicit k! belongs to the lower side and is
    supplied by the evaluators, not listed here.
    """

    upper: tuple
    lower: tuple
    z: Param
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("truncation index must be nonnegative")
        object.__setattr__(self, "upper", tuple(map(_param, self.upper)))
        object.__setattr__(self, "lower", tuple(map(_param, self.lower)))
        object.__setattr__(self, "z", _param(self.z))


def _int_column(r: int, s: int, n: int) -> range:
    """The numerators r + k*s, k < n, of an entry split as (r, s) over Q."""
    return range(r, r + n * s, s)


def _pair(x: Param) -> tuple:
    """_split(x) with its numerator as an int coordinate pair (c0, c1)."""
    r, s = _split(x)
    return ((r.c0, r.c1) if isinstance(r, CycloElem) else (r, 0)), s


def _pair_column(r: tuple, s: int, n: int):
    """The numerators (c0 + k*s, c1), k < n, of an entry split as ((c0, c1), s)."""
    return zip(range(r[0], r[0] + n * s, s), repeat(r[1]))


def _pair_prod(pairs, start: tuple) -> tuple:
    """start times every pair, in Z[w]: math.prod's twin on int pairs."""
    c0, c1 = start
    for a, b in pairs:
        c0, c1 = _zw_mul(c0, c1, a, b)
    return c0, c1


def _pair_mul(x: tuple, y: tuple) -> tuple:
    return _zw_mul(*x, *y)


def _pair_add(x: tuple, y: tuple) -> tuple:
    return x[0] + y[0], x[1] + y[1]


#: (split, column, product, mul, add) of the two rings pfq_exact sums in:
#: Q on ints, and Q(w) on int coordinate pairs.
_Q_RING = (_split, _int_column, prod, operator.mul, operator.add)
_PAIR_RING = (_pair, _pair_column, _pair_prod, _pair_mul, _pair_add)


def pfq_exact(spec: PfqSpec) -> Param:
    """The truncated sum as an exact Fraction, or a CycloElem once a Q(w)
    factor enters a live term.

    This is the oracle route: no modular shortcut, no precision loss.  Each
    entry splits once by _split, so that entry + k = (r + k*s) / s, and its
    numerators r + k*s run as one column.  Over Q they are ints; once any
    entry or z is in Q(w) every ring value is an int pair (c0, c1),
    multiplied by _zw_mul and divided once, by _zw_div, at the end.
    """
    entries = (*spec.upper, *spec.lower, spec.z)
    in_q = not any(isinstance(x, CycloElem) for x in entries)
    split, column, product, mul, add = _Q_RING if in_q else _PAIR_RING
    n = spec.n
    zero, one = split(0)[0], split(1)[0]  # split(m)[0] is the int m in the ring
    upper = [split(a) for a in spec.upper]
    lower = [split(b) for b in (*spec.lower, 1)]  # the last one gives k!'s k + 1
    z_num, z_den = split(spec.z)
    num0 = mul(z_num, split(prod(s for _, s in lower))[0])
    den0 = split(z_den * prod(s for _, s in upper))[0]
    # Each upper row leads with one, so there are n rows even with no upper entry.
    rows = zip(
        zip(repeat(one, n), *(column(r, s, n) for r, s in upper)),
        zip(*(column(r, s, n) for r, s in lower)),
    )
    term = total = shared = one  # the term and the sum, both over shared
    for k, (nums, dens) in enumerate(rows):
        if zero in nums:
            break
        if zero in dens:
            b = spec.lower[dens.index(zero)]
            raise PoleInRange(
                f"lower parameter {b} vanishes at k={k} inside a live series"
            )
        term = mul(term, product(nums, start=num0))
        den = product(dens, start=den0)
        total = add(mul(total, den), term)
        shared = mul(shared, den)
    if in_q:
        return Fraction(total, shared)
    if term is one:  # still the start object: no Q(w) factor met a live term
        return Fraction(1)
    return CycloElem(*_zw_div(*total, *shared))


def pfq_mod(spec: PfqSpec, p: int, k: int) -> int:
    """The truncated sum's class mod p^k as an int in [0, p^k), carried in
    capped p-adic arithmetic.

    Rational parameters only: any CycloElem entry is a TypeError, even at
    n = 0.  Each term's ratio to the one before is formed exactly, as an
    integer numerator and denominator, and embeds once with k relative
    digits, with no Fraction in between; the valuation
    bookkeeping in PadicCapped then certifies exactly which residue the sum
    is known to, and PrecisionExhausted is raised when cancellation ate too
    many digits or the sum is not a p-adic integer.
    """
    check_odd_prime(p)
    _check_precision(k)
    if any(isinstance(x, CycloElem) for x in (*spec.upper, *spec.lower, spec.z)):
        raise TypeError("modular evaluation is defined for rational parameters only")

    # Entry c = r/q gives c + j = (r + j*q)/q; the q's and z do not move with j.
    ups = [(c.numerator, c.denominator) for c in spec.upper]
    lows = [(c.numerator, c.denominator) for c in spec.lower]
    lift = spec.z.numerator * prod(q for _, q in lows)
    drop = spec.z.denominator * prod(q for _, q in ups)
    total = term = PadicCapped.from_rational(1, p, k)
    for j in range(spec.n):
        tops = [r + j * q for r, q in ups]
        if 0 in tops:
            break  # the series has terminated
        bottoms = [r + j * q for r, q in lows]
        if 0 in bottoms:
            b = spec.lower[bottoms.index(0)]
            raise PoleInRange(
                f"lower parameter {b} vanishes at k={j} inside a live series"
            )
        ratio = PadicCapped.from_ratio(
            prod(tops, start=lift), prod(bottoms, start=drop * (j + 1)), p, k
        )
        term = term * ratio
        total = total + term
    return total.residue(k)


@dataclass(frozen=True)
class GSParams:
    """Free parameters (a, b, d, n) of the terminating series identity.

    The seven upper and six lower entries are all determined by these; a,
    b and d keep their kinds, as PfqSpec entries do.
    Construction refuses parameter choices that put a lower-side zero
    inside the terminating range 0 <= k < n, since the series is then
    undefined rather than merely zero.
    """

    a: Param
    b: Param
    d: Param
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be a nonnegative integer")
        for name in ("a", "b", "d"):
            object.__setattr__(self, name, _param(getattr(self, name)))
        for param in self.lower:
            if _integer_in_window(param, self.n):
                raise PoleInRange(
                    f"lower parameter {param} vanishes within the terminating range"
                )

    @property
    def upper(self) -> tuple:
        a, b, d, n = self.a, self.b, self.d, self.n
        half = Fraction(1, 2)
        return (
            a,
            b,
            a - b + half,
            1 + a * Fraction(2, 3),
            1 - d * 2,
            a * 2 + d * 2 + n,
            Fraction(-n),
        )

    @property
    def lower(self) -> tuple:
        a, b, d, n = self.a, self.b, self.d, self.n
        half = Fraction(1, 2)
        return (
            a * 2 - b * 2 + 1,
            b * 2,
            a * Fraction(2, 3),
            a + d + half,
            1 - d - Fraction(n, 2),
            1 + a + Fraction(n, 2),
        )

    def series(self) -> PfqSpec:
        return PfqSpec(self.upper, self.lower, 1, self.n)


def _integer_in_window(x: Param, n: int) -> bool:
    """True when x is a plain integer in {0, -1, ..., -(n-1)}."""
    c0, c1 = _coordinates(x)
    return c1 == 0 and c0.denominator == 1 and -n < c0 <= 0


def gs_lhs(g: GSParams) -> Param:
    """Exact value of the terminating series at z = 1."""
    return pfq_exact(g.series())


def gs_rhs(g: GSParams) -> Param:
    """Closed form: a four-over-four Pochhammer quotient, or 0 for odd n.

    GSParams' construction screen refuses every point where a lower
    Pochhammer here vanishes (b + 1/2, d or a - b + 1 at -j gives a lower
    entry in the window, and a + d + 1/2 is one), so the PoleInRange check
    below cannot be reached through GSParams; it guards other callers.
    """
    if g.n % 2:
        return (g.a + g.b + g.d) * 0  # zero of the parameters' kind
    r = g.n // 2
    a, b, d = g.a, g.b, g.d
    half = Fraction(1, 2)
    ups = (half, b + d, d - b + a + half, a + 1)
    lows = (b + half, a + d + half, d, a - b + 1)
    in_q = not any(isinstance(x, CycloElem) for x in (a, b, d))
    ring = _Q_RING if in_q else _PAIR_RING
    split, product = ring[0], ring[2]
    upper = [_rising(f, r, ring) for f in ups]
    lower = [_rising(f, r, ring) for f in lows]
    for f, (top, _) in zip(lows, lower):
        if top == split(0)[0]:
            raise PoleInRange(f"closed-form denominator ({f})_{r} vanishes")
    # crosswise: the upper tops and lower bottoms over the lower tops and
    # upper bottoms, so the only division is the last one
    num = product((t for t, _ in upper), start=split(prod(s for _, s in lower))[0])
    den = product((t for t, _ in lower), start=split(prod(s for _, s in upper))[0])
    if in_q:
        return Fraction(num, den)
    if r == 0:  # no Q(w) factor entered a product
        return Fraction(1)
    return CycloElem(*_zw_div(*num, *den))


def alpha_window_residue(alpha: Fraction, p: int) -> int:
    """Least residue of alpha mod p, checked against the window [0, p//4].

    The shifted-series results only hold on that window; outside it the
    caller gets AlphaOutOfRange rather than a silently false congruence.
    """
    alpha = _as_fraction(alpha)
    r = least_residue(alpha, p)  # raises NonUnitDenominator when v_p < 0
    if r > p // 4:
        raise AlphaOutOfRange(
            f"least residue of {alpha} mod {p} is {r}, outside [0, {p // 4}]"
        )
    return r


def ff_point(p: int, alpha: Fraction) -> GSParams:
    """The root-of-unity point (1/4, 1/2 + alpha, (1 + w^2 p)/4, (p-1)/2).

    a and b are rationals; only d lies in Q(w).  No admissibility checks;
    ff1_build and the ff-3.3 checker make them.
    """
    d = CycloElem(Fraction(1 - p, 4), Fraction(-p, 4))  # (1 + (-1 - w) p) / 4
    return GSParams(Fraction(1, 4), Fraction(1, 2) + alpha, d, (p - 1) // 2)


def ff1_build(p: int, alpha) -> tuple[CycloElem, CycloElem]:
    """Both sides of the identity at ff_point(p, alpha), exactly.

    Returns (series value, closed form) as exact CycloElem elements.  The
    two are equal for every admissible (p, alpha); callers assert that,
    and the congruence layer reduces the shared value mod p^3.
    """
    check_odd_prime(p)
    if p < 5:
        raise ValueError("p must be at least 5")
    alpha = _as_fraction(alpha)
    alpha_window_residue(alpha, p)
    g = ff_point(p, alpha)
    return gs_lhs(g), gs_rhs(g)
