"""Morita's p-adic Gamma function at rational arguments, mod p^k.

For an integer m >= 0 the function is the p-free factorial with a sign,

    G_p(m) = (-1)^m * prod of j for 0 <= j < m with p not dividing j

(empty product for m <= 1, so G_p(0) = 1 and G_p(1) = -1).  That map is
continuous, so its value mod p^k depends only on m mod p^k; a rational
x in Z_p is handled by reducing it to its representative in [0, p^k).

The product is taken block by block.  The product of the p-units in the
aligned block [s p^l, (s + 1) p^l), mod p^k, is a polynomial B_l(s) whose
s^i coefficient is divisible by p^(i l), so it has degree below k:

    B_1(s) = prod_{0<j<p} (j + p s),   B_{l+1}(s) = prod_{u<p} B_l(p s + u).

Walking up from 0, each step multiplies in the largest aligned block that
still ends at or below the next representative, and the last fewer than p
units are multiplied directly.  A value costs O(p k) block evaluations of
O(k) each, instead of the O(p^k) units of the plain product (Morita 1975).
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
    """Representative of x in [0, p^k); gamma at x is the product below it."""
    return reduce_mod(x, p, k).value


def residue_rep(x: RationalLike, p: int) -> int:
    """The representative of x mod p in {1, ..., p}.

    Same as least_residue except that the class of zero maps to p, not 0.
    This is the exponent convention the reflection law uses.
    """
    r = least_residue(x, p)
    return r if r else p


def _substitute(poly: list, p: int, u: int, k: int, pk: int) -> list:
    """poly(p s + u) mod pk, as coefficients of s below degree k."""
    out = [0] * k
    for c in reversed(poly):
        for i in range(k - 1, 0, -1):
            out[i] = (u * out[i] + p * out[i - 1]) % pk
        out[0] = (u * out[0] + c) % pk
    return out


def _poly_mul(a: list, b: list, k: int, pk: int) -> list:
    """a * b mod pk, truncated below degree k."""
    out = [0] * k
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: k - i]):
                out[i + j] += x * y
    return [c % pk for c in out]


def _block_polys(p: int, k: int, top: int) -> list:
    """(p^l, B_l) for every level l >= 1 with p^l <= top, largest first.

    B_0(t) = t on the units, so B_1 is the product of its substitutions
    at the nonzero u; every later level takes all p of them.
    """
    pk = p**k
    levels = []
    poly, size = [0, 1], p
    while size <= top:
        nxt = [1]
        for u in range(1 if size == p else 0, p):
            nxt = _poly_mul(nxt, _substitute(poly, p, u, k, pk), k, pk)
        levels.insert(0, (size, nxt))
        poly, size = nxt, size * p
    return levels


def _eval(poly: list, s: int, pk: int) -> int:
    """poly(s) mod pk."""
    acc = 0
    for c in reversed(poly):
        acc = (acc * s + c) % pk
    return acc


def gamma_p(x: RationalLike, p: int, k: int) -> PrimePowerResidue:
    """G_p(x) mod p^k for x in Z_p (denominator must be a p-unit)."""
    return GammaBatch(p, k).add(x).run().value(x)


class GammaBatch:
    """One shared block walk answering many gamma queries at fixed (p, k).

    Arguments are registered up front (in any order, duplicates fine),
    one ascending walk passes every representative, and values are read
    back per argument.  The block polynomials are rebuilt by each run();
    deliberately not a cross-prime cache, so build one per (p, k) job and
    let it go.
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
        """The largest registered representative: where the walk ends."""
        return max(self._reps, default=0)

    def run(self) -> "GammaBatch":
        if self._values is not None:
            return self
        p, k = self.p, self.k
        pk = p**k
        levels = _block_polys(p, k, self.sweep_length)
        values: dict[int, PrimePowerResidue] = {}
        acc = 1
        cur = 0  # acc is the product of the units in [0, cur)
        for m in sorted(self._reps):
            while cur < m:
                for size, poly in levels:
                    if cur % size == 0 and cur + size <= m:
                        acc = acc * _eval(poly, cur // size, pk) % pk
                        cur += size
                        break
                else:
                    stop = min(m, cur - cur % p + p)
                    acc = acc * math.prod(range(cur + (cur % p == 0), stop)) % pk
                    cur = stop
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
                f"argument {x} (rep {m}) was not registered before the walk"
            ) from None
