"""Scalar arithmetic layer: rationals, residues mod p^k, capped p-adics, and Z[w].

Everything downstream (gamma sweeps, series evaluators, congruence checkers)
works over the four scalar kinds defined here:

  * exact rationals      -- fractions.Fraction, used as-is
  * residues mod p^k     -- plain ints in [0, p^k) for an odd prime p,
                            1 <= k <= 6; reduce_mod hands its class back
                            as a PrimePowerResidue, read through `.value`
  * PadicCapped          -- p^v * unit with a tracked relative precision;
                            the format behind hyper.pfq_mod, not exported;
                            from_ratio embeds an int numerator and denominator
                            (p stripped from each, unit num * den^-1 mod p^k),
                            and from_rational is that embed of a Fraction
  * CycloElem            -- c0 + c1*w with w^2 + w + 1 = 0; coordinates are
                            ints until a division makes Fractions; cyclo_reduce
                            gives its class mod p^k with coordinates in [0, p^k);
                            _zw_mul and _zw_div run on bare coordinate pairs,
                            which is how hyper.pfq_exact and ff-3.2 multiply

Valuations are computed exactly on rationals; nothing here ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import (
    NonInvertible,
    NonUnitDenominator,
    PrecisionExhausted,
    PrecisionOutOfRange,
)

RationalLike = Union[int, Fraction]

#: Largest supported precision exponent.  Residues and capped p-adics live in
#: Z/p^k with 1 <= k <= MAX_PRECISION; congruence work in this package never
#: needs more than p^6.
MAX_PRECISION = 6

INFINITY = math.inf


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality test; ample for the prime ranges used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_odd_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p) or p == 2:
        raise ValueError(f"expected an odd prime, got {p!r}")
    return p


def primes_in(lo: int, hi: int) -> tuple[int, ...]:
    """All primes in the closed interval [lo, hi]."""
    return tuple(n for n in range(max(lo, 2), hi + 1) if is_prime(n))


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def vp(x: RationalLike, p: int):
    """p-adic valuation of a rational; INFINITY for zero.

    Exact on Fraction inputs: v_p(a/b) = v_p(a) - v_p(b).  Works for any
    prime, including 2, even though the rest of the package is odd-only.
    """
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    x = _as_fraction(x)
    if x == 0:
        return INFINITY
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _check_precision(k: int) -> int:
    if not isinstance(k, int) or not 1 <= k <= MAX_PRECISION:
        raise PrecisionOutOfRange(
            f"precision exponent must be an integer in 1..{MAX_PRECISION}, got {k!r}"
        )
    return k


@dataclass(frozen=True)
class PrimePowerResidue:
    """reduce_mod's class mod p^k, p an odd prime, 1 <= k <= 6.

    The stored value is always normalized to [0, p^k).  Besides `.value`
    and `==` it offers only `*`, by a residue of the same (p, k) or a plain
    int, on either side; mixing moduli is a bug, not a coercion
    opportunity.  Every other residue computation runs on `.value` ints.
    """

    p: int
    k: int
    value: int

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0:
            raise ValueError(f"modulus base must be an odd prime, got {self.p}")
        _check_precision(self.k)
        object.__setattr__(self, "value", self.value % self.p**self.k)

    def _coerce(self, other) -> "PrimePowerResidue":
        if isinstance(other, PrimePowerResidue):
            if other.p != self.p or other.k != self.k:
                raise ValueError(
                    f"modulus mismatch: {self.p}^{self.k} vs {other.p}^{other.k}"
                )
            return other
        if isinstance(other, int):
            return PrimePowerResidue(self.p, self.k, other)
        return NotImplemented

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PrimePowerResidue(self.p, self.k, self.value * o.value)

    __rmul__ = __mul__


def reduce_mod(x: RationalLike, p: int, k: int) -> PrimePowerResidue:
    """Reduce a rational with p-unit denominator into Z/p^k.

    The denominator is inverted mod p^k; a p in the denominator raises
    NonUnitDenominator since the value then has no residue at all.
    """
    check_odd_prime(p)
    _check_precision(k)
    x = _as_fraction(x)
    if x.denominator % p == 0:
        raise NonUnitDenominator(
            f"{x} has {p} in its denominator; not a {p}-adic integer"
        )
    m = p**k
    return PrimePowerResidue(p, k, x.numerator * pow(x.denominator, -1, m) % m)


def least_residue(x: RationalLike, p: int) -> int:
    """The representative of x mod p in [0, p)."""
    return reduce_mod(x, p, 1).value


@dataclass(frozen=True)
class PadicCapped:
    """A p-adic number known to finitely many digits: p^valuation * unit.

    ``unit`` holds ``precision`` base-p digits, so the value is pinned down
    modulo p^abs_precision = p^(valuation + precision).  Precision 0 means
    no digit is known and the value lies somewhere in p^valuation Z_p; that
    is the zero a sum lands on when it cancels through every digit in hand.
    The exact zero is the case valuation = INFINITY, as vp(0) has it.

    Multiplication adds valuations and keeps the smaller relative precision.
    Addition works at the smaller absolute precision.  ``residue(k)`` raises
    PrecisionExhausted when the digits in hand cannot certify a class mod p^k.
    """

    p: int
    valuation: int
    unit: int
    precision: int

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0:
            raise ValueError(f"base must be an odd prime, got {self.p}")
        if not 0 <= self.precision <= MAX_PRECISION:
            raise PrecisionOutOfRange(
                f"relative precision must be in 0..{MAX_PRECISION}, "
                f"got {self.precision!r}"
            )
        u = self.unit % self.p**self.precision
        if self.precision and u % self.p == 0:
            raise ValueError(
                f"unit part {self.unit} is divisible by {self.p}; "
                "normalize the valuation instead"
            )
        object.__setattr__(self, "unit", u)

    @classmethod
    def from_rational(cls, x: RationalLike, p: int, precision: int) -> "PadicCapped":
        """Embed an exact rational with the given relative precision.

        Negative valuations are allowed here (the input is exact); they only
        become a problem if a residue is later requested.
        """
        check_odd_prime(p)
        _check_precision(precision)
        x = _as_fraction(x)
        return cls.from_ratio(x.numerator, x.denominator, p, precision)

    @classmethod
    def from_ratio(cls, num: int, den: int, p: int, precision: int) -> "PadicCapped":
        """Embed the exact ratio num / den of two ints, in lowest terms or not.

        p is stripped from each, so the valuation is v_p(num) - v_p(den), and
        the unit is num * den^-1 mod p^precision.  A zero num gives the exact
        zero.  p and precision are taken as checked (from_rational checks them).
        """
        if den == 0:
            raise ZeroDivisionError("ratio with a zero denominator")
        if num == 0:
            return cls(p, INFINITY, 0, 0)
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        m = p**precision
        return cls(p, v, num * pow(den, -1, m) % m, precision)

    @property
    def abs_precision(self):
        """Exponent N such that the value is known mod p^N (INFINITY for zero)."""
        return self.valuation + self.precision

    def _require_same_p(self, other: "PadicCapped"):
        if not isinstance(other, PadicCapped):
            raise TypeError(f"expected PadicCapped, got {type(other).__name__}")
        if other.p != self.p:
            raise ValueError(f"prime mismatch: {self.p} vs {other.p}")

    def __mul__(self, other: "PadicCapped") -> "PadicCapped":
        self._require_same_p(other)
        r = min(self.precision, other.precision)
        return PadicCapped(
            self.p, self.valuation + other.valuation, self.unit * other.unit, r
        )

    def __truediv__(self, other: "PadicCapped") -> "PadicCapped":
        self._require_same_p(other)
        if other.precision == 0:
            raise ZeroDivisionError("division by a p-adic zero")
        r = min(self.precision, other.precision)
        inv = pow(other.unit, -1, self.p**r)
        return PadicCapped(
            self.p, self.valuation - other.valuation, self.unit * inv, r
        )

    def __add__(self, other: "PadicCapped") -> "PadicCapped":
        self._require_same_p(other)
        p = self.p
        n = min(self.abs_precision, other.abs_precision)
        v = min(self.valuation, other.valuation)
        if v < n:
            total = 0
            for x in (self, other):
                if x.valuation < n:  # else x is 0 mod p^n, the exact zero too
                    total += x.unit * p ** (x.valuation - v)
            total %= p ** (n - v)
            if total:
                while total % p == 0:
                    total //= p
                    v += 1
                return PadicCapped(p, v, total, n - v)
        # Cancellation through every digit in hand, or no digit to begin
        # with: the sum lies in p^n Z_p and nothing more is known.
        return PadicCapped(p, n, 0, 0)

    def residue(self, k: int) -> int:
        """The class mod p^k as an int in [0, p^k), if the digits in hand
        pin it down."""
        _check_precision(k)
        if self.valuation >= k:
            return 0
        if self.valuation < 0:
            raise PrecisionExhausted(
                f"valuation {self.valuation} < 0: not a {self.p}-adic integer"
            )
        if self.abs_precision < k:
            raise PrecisionExhausted(
                f"value known mod {self.p}^{self.abs_precision}, "
                f"residue mod {self.p}^{k} requested"
            )
        return self.p**self.valuation * self.unit % self.p**k


def _zw_mul(a, b, c, d):
    """(a + b*w)(c + d*w) as a pair (c0, c1), with w^2 = -1 - w."""
    bd = b * d
    return a * c - bd, a * d + b * c - bd


def _zw_div(a, b, c, d):
    """(a + b*w) / (c + d*w) as a Fraction pair, via conjugate and norm."""
    n = c * c - c * d + d * d
    if n == 0:
        raise NonInvertible("zero has no inverse")
    return tuple(Fraction(e, n) for e in _zw_mul(a, b, c - d, -d))


def _coordinate(x: RationalLike) -> RationalLike:
    """A CycloElem coordinate: an int (a bool too) or else a Fraction."""
    return int(x) if isinstance(x, int) else _as_fraction(x)


def _coordinates(x):
    """(c0, c1) of a CycloElem, (x, 0) of an int or Fraction, else None."""
    if isinstance(x, CycloElem):
        return x.c0, x.c1
    return (x, 0) if isinstance(x, (int, Fraction)) else None


@dataclass(frozen=True)
class CycloElem:
    """c0 + c1*w in Q(w), w a primitive cube root of unity.

    The defining relation is w^2 = -(1 + w).  Coordinates are exact: ints
    stay plain ints (a bool becomes one) until a division makes Fractions,
    and anything else must be a Fraction.  The ring is an integral domain
    whose norm form c0^2 - c0*c1 + c1^2 vanishes only at zero, so division
    is total away from zero.  Classes mod p^k are held as the representatives
    cyclo_reduce returns.  An element on the rational axis equals, and
    hashes like, its rational; operators read an int or Fraction operand's
    pair through _coordinates and never promote it to a CycloElem.
    """

    c0: RationalLike
    c1: RationalLike

    def __post_init__(self):
        object.__setattr__(self, "c0", _coordinate(self.c0))
        object.__setattr__(self, "c1", _coordinate(self.c1))

    def __eq__(self, other):
        if (o := _coordinates(other)) is None:
            return NotImplemented
        return (self.c0, self.c1) == o

    def __hash__(self):
        return hash(self.c0) if self.c1 == 0 else hash((self.c0, self.c1))

    def __add__(self, other):
        if (o := _coordinates(other)) is None:
            return NotImplemented
        return CycloElem(self.c0 + o[0], self.c1 + o[1])

    __radd__ = __add__

    def __sub__(self, other):
        if (o := _coordinates(other)) is None:
            return NotImplemented
        return CycloElem(self.c0 - o[0], self.c1 - o[1])

    def __rsub__(self, other):
        if (o := _coordinates(other)) is None:
            return NotImplemented
        return CycloElem(o[0] - self.c0, o[1] - self.c1)

    def __mul__(self, other):
        if (o := _coordinates(other)) is None:
            return NotImplemented
        return CycloElem(*_zw_mul(self.c0, self.c1, *o))

    __rmul__ = __mul__

    def conjugate(self) -> "CycloElem":
        """Image under w -> w^2 = -1 - w."""
        return CycloElem(self.c0 - self.c1, -self.c1)

    def norm(self) -> RationalLike:
        """c0^2 - c0*c1 + c1^2; multiplicative, and zero only at zero."""
        return self.c0 * self.c0 - self.c0 * self.c1 + self.c1 * self.c1

    def inverse(self) -> "CycloElem":
        return CycloElem(*_zw_div(1, 0, self.c0, self.c1))

    def __truediv__(self, other):
        if (o := _coordinates(other)) is None:
            return NotImplemented
        return CycloElem(*_zw_div(self.c0, self.c1, *o))

    def __rtruediv__(self, other):
        if (o := _coordinates(other)) is None:
            return NotImplemented
        return CycloElem(*_zw_div(*o, self.c0, self.c1))

    def __str__(self) -> str:
        return f"{self.c0} + {self.c1}*w"


#: The generator itself.
OMEGA = CycloElem(0, 1)


def cyclo_reduce(x: CycloElem, p: int, k: int) -> CycloElem:
    """The canonical representative of x mod p^k.

    Each coordinate is reduced to its integer representative in [0, p^k);
    a p in a coordinate's denominator raises NonUnitDenominator.  Ring
    operations on representatives followed by another cyclo_reduce agree
    with reducing the exact result.
    """
    if not isinstance(x, CycloElem):
        raise TypeError("cyclo_reduce expects a CycloElem")
    return CycloElem(reduce_mod(x.c0, p, k).value, reduce_mod(x.c1, p, k).value)
