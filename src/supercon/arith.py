"""Scalar arithmetic layer: rationals, residues mod p^k, capped p-adics, and Z[w].

Everything downstream (gamma sweeps, series evaluators, congruence checkers)
works over the four scalar kinds defined here:

  * exact rationals      -- fractions.Fraction, used as-is
  * PrimePowerResidue    -- a class mod p^k for an odd prime p, 1 <= k <= 6,
                            with `*` and `**` by n >= 0; the checkers do
                            their other residue work on plain ints
  * PadicCapped          -- p^v * unit with a tracked relative precision;
                            the format behind hyper.pfq_mod, not exported
  * CycloElem            -- c0 + c1*w with w^2 + w + 1 = 0 and exact rational
                            coordinates; cyclo_reduce gives its class mod p^k
                            as the representative with coordinates in [0, p^k)

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
    """A class mod p^k, p an odd prime, 1 <= k <= 6.

    The stored value is always normalized to [0, p^k).  It carries what the
    reports print and compare: `==`, `*` (by a residue of the same (p, k) or
    a plain int, on either side) and `**` by an integer n >= 0.  Mixing
    moduli is a bug, not a coercion opportunity.  Sums, negation and
    inverses are taken on `.value` ints mod `.modulus`.
    """

    p: int
    k: int
    value: int

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0:
            raise ValueError(f"modulus base must be an odd prime, got {self.p}")
        _check_precision(self.k)
        object.__setattr__(self, "value", self.value % self.p**self.k)

    @property
    def modulus(self) -> int:
        return self.p**self.k

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

    def __pow__(self, n: int) -> "PrimePowerResidue":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return PrimePowerResidue(self.p, self.k, pow(self.value, n, self.modulus))

    def __str__(self) -> str:
        return str(self.value)


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
        if x == 0:
            return cls(p, INFINITY, 0, 0)
        v = vp(x, p)
        u = x / Fraction(p) ** v
        m = p**precision
        unit = u.numerator * pow(u.denominator, -1, m) % m
        return cls(p, v, unit, precision)

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

    def residue(self, k: int) -> PrimePowerResidue:
        """The class mod p^k, if the digits in hand pin it down."""
        _check_precision(k)
        if self.valuation >= k:
            return PrimePowerResidue(self.p, k, 0)
        if self.valuation < 0:
            raise PrecisionExhausted(
                f"valuation {self.valuation} < 0: not a {self.p}-adic integer"
            )
        if self.abs_precision < k:
            raise PrecisionExhausted(
                f"value known mod {self.p}^{self.abs_precision}, "
                f"residue mod {self.p}^{k} requested"
            )
        return PrimePowerResidue(self.p, k, self.p**self.valuation * self.unit)


@dataclass(frozen=True)
class CycloElem:
    """c0 + c1*w in Q(w), w a primitive cube root of unity.

    The defining relation is w^2 = -(1 + w); both coordinates are exact
    Fractions (ints are promoted).  The ring is an integral domain whose
    norm form c0^2 - c0*c1 + c1^2 vanishes only at zero, so division is
    total away from zero.  Classes mod p^k are held as the representatives
    cyclo_reduce returns.  An element on the rational axis equals, and
    hashes like, its rational, so ints, Fractions and CycloElems mix in
    arithmetic and comparison without explicit promotion.
    """

    c0: Fraction
    c1: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c0", _as_fraction(self.c0))
        object.__setattr__(self, "c1", _as_fraction(self.c1))

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElem(other, 0)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, CycloElem):
            return self.c0 == other.c0 and self.c1 == other.c1
        if isinstance(other, (int, Fraction)):
            return self.c1 == 0 and self.c0 == other
        return NotImplemented

    def __hash__(self):
        return hash(self.c0) if self.c1 == 0 else hash((self.c0, self.c1))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CycloElem(self.c0 + o.c0, self.c1 + o.c1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CycloElem(self.c0 - o.c0, self.c1 - o.c1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __neg__(self):
        return CycloElem(-self.c0, -self.c1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # (a + b*w)(c + d*w) with w^2 = -1 - w
        a, b, c, d = self.c0, self.c1, o.c0, o.c1
        bd = b * d
        return CycloElem(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycloElem":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = CycloElem(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "CycloElem":
        """Image under w -> w^2 = -1 - w."""
        return CycloElem(self.c0 - self.c1, -self.c1)

    def norm(self) -> Fraction:
        """c0^2 - c0*c1 + c1^2; multiplicative, and zero only at zero."""
        return self.c0 * self.c0 - self.c0 * self.c1 + self.c1 * self.c1

    def inverse(self) -> "CycloElem":
        n = self.norm()
        if n == 0:
            raise NonInvertible("zero has no inverse")
        conj = self.conjugate()
        return CycloElem(conj.c0 / n, conj.c1 / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

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
