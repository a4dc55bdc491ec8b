"""Morita's p-adic Gamma function at rational arguments, mod p^k.

For an integer m >= 0 the function is the p-free factorial with a sign,

    G_p(m) = (-1)^m * prod of j for 0 <= j < m with p not dividing j

(empty product for m <= 1, so G_p(0) = 1 and G_p(1) = -1).  That map is
continuous, so its value mod p^k depends only on m mod p^k; a rational
x in Z_p is handled by reducing it to its representative in [0, p^k).

Cost is one multiply per unit below the representative, so a single value
costs O(p^k).  ``GammaBatch`` shares one ascending sweep across many
arguments at the same (p, k); congruence checkers lean on it so a whole
prime's worth of values costs the same as the largest single one.
"""

from __future__ import annotations

import math

from .arith import (
    PrimePowerResidue,
    RationalLike,
    _check_precision,
    check_odd_prime,
    least_residue,
    reduce_mod,
)


def _sweep_rep(x: RationalLike, p: int, k: int) -> int:
    """Representative of x in [0, p^k); the sweep length for gamma at x."""
    return reduce_mod(x, p, k).value


def residue_rep(x: RationalLike, p: int) -> int:
    """The representative of x mod p in {1, ..., p}.

    Same as least_residue except that the class of zero maps to p, not 0.
    This is the exponent convention the reflection law uses.
    """
    r = least_residue(x, p)
    return r if r else p


def _unit_span_product(lo: int, hi: int, p: int, pk: int) -> int:
    """Product mod pk of all j in [lo, hi) with p not dividing j.

    Walks block by block between multiples of p; one big-int product and
    one reduction per block keeps the constant factor low without changing
    the O(hi - lo) contract.
    """
    acc = 1
    cur = lo
    while cur < hi:
        if cur % p == 0:
            cur += 1
            continue
        stop = min(hi, cur + (p - cur % p))
        acc = acc * math.prod(range(cur, stop)) % pk
        cur = stop
    return acc


def gamma_p(x: RationalLike, p: int, k: int) -> PrimePowerResidue:
    """G_p(x) mod p^k for x in Z_p (denominator must be a p-unit)."""
    check_odd_prime(p)
    _check_precision(k)
    m = _sweep_rep(x, p, k)
    pk = p**k
    val = _unit_span_product(1, m, p, pk)
    if m % 2:
        val = -val % pk
    return PrimePowerResidue(p, k, val)


class GammaBatch:
    """One shared sweep answering many gamma queries at fixed (p, k).

    Arguments are registered up front (in any order, duplicates fine),
    the sweep runs once to the largest representative, and values are read
    back per argument.  Deliberately not a cross-prime cache; build one per
    (p, k) job and let it go.
    """

    def __init__(self, p: int, k: int):
        check_odd_prime(p)
        _check_precision(k)
        self.p = p
        self.k = k
        self._reps: set[int] = set()
        self._values: dict[int, PrimePowerResidue] | None = None

    def add(self, x: RationalLike) -> "GammaBatch":
        if self._values is not None:
            raise RuntimeError("batch already swept; create a new one")
        self._reps.add(_sweep_rep(x, self.p, self.k))
        return self

    def add_all(self, xs) -> "GammaBatch":
        for x in xs:
            self.add(x)
        return self

    @property
    def sweep_length(self) -> int:
        """Units visited by run(); the cost estimate used by work guards."""
        return max(self._reps, default=0)

    def run(self) -> "GammaBatch":
        if self._values is not None:
            return self
        p, k = self.p, self.k
        pk = p**k
        values: dict[int, PrimePowerResidue] = {}
        acc = 1
        prev = 1
        for m in sorted(self._reps):
            acc = acc * _unit_span_product(prev, max(m, 1), p, pk) % pk
            prev = max(m, 1)
            val = -acc % pk if m % 2 else acc
            values[m] = PrimePowerResidue(p, k, val)
        self._values = values
        return self

    def value(self, x: RationalLike) -> PrimePowerResidue:
        if self._values is None:
            self.run()
        m = _sweep_rep(x, self.p, self.k)
        try:
            return self._values[m]
        except KeyError:
            raise KeyError(
                f"argument {x} (rep {m}) was not registered before the sweep"
            ) from None

