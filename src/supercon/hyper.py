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
    PrimePowerResidue,
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
    out = Fraction(1)
    for j in range(n):
        out = out * (x + j)
    return out


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


def pfq_exact(spec: PfqSpec) -> Param:
    """The truncated sum as an exact Fraction, or a CycloElem once a Q(w)
    factor enters a live term.

    This is the oracle route: no modular shortcut, no precision loss.
    """
    total = term = Fraction(1)
    for k in range(spec.n):
        dead = False
        num = Fraction(1)
        for a in spec.upper:
            f = a + k
            if f == 0:
                dead = True
                break
            num = num * f
        if dead:
            break
        den = Fraction(k + 1)
        for b in spec.lower:
            f = b + k
            if f == 0:
                raise PoleInRange(
                    f"lower parameter {b} vanishes at k={k} inside a live series"
                )
            den = den * f
        term = term * num / den * spec.z
        total = total + term
    return total


def pfq_mod(spec: PfqSpec, p: int, k: int) -> PrimePowerResidue:
    """The truncated sum's class mod p^k, carried in capped p-adic arithmetic.

    Rational parameters only: any CycloElem entry is a TypeError, even at
    n = 0.  Each factor embeds with k relative digits; the valuation
    bookkeeping in PadicCapped then certifies exactly which residue the sum
    is known to, and PrecisionExhausted is raised when cancellation ate too
    many digits or the sum is not a p-adic integer.
    """
    check_odd_prime(p)
    _check_precision(k)
    if any(isinstance(x, CycloElem) for x in (*spec.upper, *spec.lower, spec.z)):
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
    return any(x == -j for j in range(n))


def gs_lhs(g: GSParams) -> Param:
    """Exact value of the terminating series at z = 1."""
    return pfq_exact(g.series())


def gs_rhs(g: GSParams) -> Param:
    """Closed form: a four-over-four Pochhammer quotient, or 0 for odd n."""
    if g.n % 2:
        return (g.a + g.b + g.d) * 0  # zero of the parameters' kind
    r = g.n // 2
    a, b, d = g.a, g.b, g.d
    half = Fraction(1, 2)
    num = (
        pochhammer(half, r)
        * pochhammer(b + d, r)
        * pochhammer(d - b + a + half, r)
        * pochhammer(a + 1, r)
    )
    den = Fraction(1)
    for f in (b + half, a + d + half, d, a - b + 1):
        pf = pochhammer(f, r)
        if pf == 0:
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
    a = CycloElem(Fraction(1, 4), 0)
    b = CycloElem(Fraction(1, 2) + alpha, 0)
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
