"""Truncated hypergeometric sums, exact and modular, plus a terminating
two-balanced series identity and its root-of-unity specialization.

Series are evaluated by the term ratio

    t_{k+1} = t_k * prod(a_i + k) / (prod(b_j + k) * (k+1)) * z,

never by rebuilding Pochhammers, so an n-term truncation costs O(n) ring
operations.  A zero among the upper factors kills every later term (the
series has terminated); a zero among the lower factors while terms are
still live is a genuine pole and raises PoleInRange.  The dead-series
check runs first, so a terminating series with a harmless lower zero
beyond its support still evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .arith import (
    CycloElem,
    OMEGA,
    PadicCapped,
    check_odd_prime,
    least_residue,
    _as_fraction,
    _check_precision,
)
from .errors import AlphaOutOfRange, PoleInRange

Param = Union[int, Fraction, CycloElem]


def pochhammer(x: Param, n: int) -> Param:
    """Rising factorial x(x+1)...(x+n-1); exact, over rationals or CycloElem."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    if isinstance(x, int):
        x = Fraction(x)
    out = x**0  # one of the matching kind
    for j in range(n):
        out = out * (x + j)
    return out


def _is_cyclo(x) -> bool:
    return isinstance(x, CycloElem)


def _to_cyclo(x: Param) -> CycloElem:
    return x if isinstance(x, CycloElem) else CycloElem(x, 0)


@dataclass(frozen=True)
class PfqSpec:
    """Parameters of a truncated series: sum_{k=0}^{n} of the usual term.

    Upper and lower entries are rationals, or CycloElem elements if any entry
    (or z) lives in the extension; mixed input is promoted to the common
    kind at construction.  The implicit k! belongs to the lower side and
    is supplied by the evaluators, not listed here.
    """

    upper: tuple
    lower: tuple
    z: Param
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("truncation index must be nonnegative")
        entries = (*self.upper, *self.lower, self.z)
        if any(_is_cyclo(e) for e in entries):
            up = tuple(_to_cyclo(e) for e in self.upper)
            lo = tuple(_to_cyclo(e) for e in self.lower)
            z = _to_cyclo(self.z)
        else:
            up = tuple(_as_fraction(e) for e in self.upper)
            lo = tuple(_as_fraction(e) for e in self.lower)
            z = _as_fraction(self.z)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "z", z)

    @property
    def is_cyclo(self) -> bool:
        return _is_cyclo(self.z)


def _scalar_is_zero(x) -> bool:
    return x.is_zero if _is_cyclo(x) else x == 0


def pfq_exact(spec: PfqSpec) -> Param:
    """The truncated sum as an exact Fraction (or CycloElem).

    This is the oracle route: no modular shortcut, no precision loss.
    """
    one = _to_cyclo(1) if spec.is_cyclo else Fraction(1)
    total = one
    term = one
    for k in range(spec.n):
        dead = False
        num = one
        for a in spec.upper:
            f = a + k
            if _scalar_is_zero(f):
                dead = True
                break
            num = num * f
        if dead:
            break
        den = one * (k + 1)
        for b in spec.lower:
            f = b + k
            if _scalar_is_zero(f):
                raise PoleInRange(
                    f"lower parameter {b} vanishes at k={k} inside a live series"
                )
            den = den * f
        term = term * num / den * spec.z
        total = total + term
    return total


def pfq_mod(spec: PfqSpec, p: int, k: int) -> PadicCapped:
    """The truncated sum carried in capped p-adic arithmetic.

    Rational parameters only.  Each factor embeds with k relative digits;
    the valuation bookkeeping in PadicCapped then certifies exactly which
    residue the sum is known to.  Callers wanting a class mod p^k ask the
    result for .residue(k), which raises PrecisionExhausted if cancellation
    ate too many digits.
    """
    check_odd_prime(p)
    _check_precision(k)
    if spec.is_cyclo:
        raise TypeError("modular evaluation is defined for rational parameters only")

    def emb(x) -> PadicCapped:
        return PadicCapped.from_rational(x, p, k)

    z = emb(spec.z)
    total = emb(1)
    term = emb(1)
    for j in range(spec.n):
        dead = False
        num = emb(1)
        for a in spec.upper:
            f = a + j
            if f == 0:
                dead = True
                break
            num = num * emb(f)
        if dead:
            break
        den = emb(j + 1)
        for b in spec.lower:
            f = b + j
            if f == 0:
                raise PoleInRange(
                    f"lower parameter {b} vanishes at k={j} inside a live series"
                )
            den = den * emb(f)
        term = term * num / den * z
        total = total + term
    return total


@dataclass(frozen=True)
class GSParams:
    """Free parameters (a, b, d, n) of the terminating series identity.

    The seven upper and six lower entries are all determined by these.
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
        entries = (self.a, self.b, self.d)
        if any(_is_cyclo(e) for e in entries):
            a, b, d = (_to_cyclo(e) for e in entries)
        else:
            a, b, d = (_as_fraction(e) for e in entries)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
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
            -Fraction(n) if not _is_cyclo(a) else _to_cyclo(-n),
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
    if _is_cyclo(x):
        if x.c1 != 0:
            return False
        x = x.c0
    x = _as_fraction(x)
    return x.denominator == 1 and -(n - 1) <= x.numerator <= 0


def gs_lhs(g: GSParams) -> Param:
    """Exact value of the terminating series at z = 1."""
    return pfq_exact(g.series())


def gs_rhs(g: GSParams) -> Param:
    """Closed form: a four-over-four Pochhammer quotient, or 0 for odd n."""
    one = _to_cyclo(1) if _is_cyclo(g.a) else Fraction(1)
    if g.n % 2:
        return one - one
    r = g.n // 2
    a, b, d = g.a, g.b, g.d
    half = Fraction(1, 2)
    num = (
        pochhammer(one * half, r)
        * pochhammer(b + d, r)
        * pochhammer(d - b + a + half, r)
        * pochhammer(a + 1, r)
    )
    den_factors = (b + half, a + d + half, d, a - b + 1)
    den = one
    for f in den_factors:
        pf = pochhammer(f, r)
        if _scalar_is_zero(pf):
            raise PoleInRange(f"closed-form denominator ({f})_{r} vanishes")
        den = den * pf
    return num / den


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

    No admissibility checks; ff1_build and the ff-3.3 checker make them.
    """
    a = _to_cyclo(Fraction(1, 4))
    b = _to_cyclo(Fraction(1, 2) + alpha)
    d = (OMEGA.conjugate() * p + 1) * Fraction(1, 4)  # w^2 = -1 - w
    return GSParams(a, b, d, (p - 1) // 2)


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
