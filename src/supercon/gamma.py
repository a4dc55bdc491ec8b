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

With base-p digits d_l of m, the units below m fill d_l level-l blocks
after q_l p^(l+1) at each level, where q_l = floor(m / p^(l+1)), so

    G_p(m) = (-1)^m * prod_l Q_l[d_l](q_l),   Q_l[d](q) = prod_{u<d} B_l(p q + u).

One pass builds the digit tables Q_l[d] for d < p; each value then reads
one table entry per digit, k evaluations of O(k) each, instead of the
O(p^k) units of the plain product (Morita 1975).

GammaBatch answers a set of arguments from one set of tables and reads each
value back as a plain int in [0, p^k); gamma_p is the one-argument call and
returns the same int.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import RationalLike, _check_precision, check_odd_prime, reduce_mod


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


# The last 2 sets read: enough for the right sides that build one batch per
# alpha at one prime, and no more.
@lru_cache(maxsize=2)
def _digit_rows(p: int, k: int, levels: int) -> tuple:
    """Row l is the table Q_l[d], d < p, of each level l < levels.

    Level 0 skips the multiple u = 0 and grows by the linear factor p q + u;
    B_(l+1) is Q_l[p].  The top level only sees q = 0, so it holds constants.
    Rows and entries are tuples, so a cached set cannot be changed.
    """
    pk = p**k
    rows, block = [], None
    for level in range(levels):
        at_top = level == levels - 1
        q, row = [1], [(1,)]
        for u in range(p - 1 if at_top else p):
            if at_top:  # B_l(u), and B_0(u) = u on the units
                q = [q[0] * (_eval(block, u, pk) if block else u or 1) % pk]
            elif block:
                q = _poly_mul(q, _substitute(block, p, u, k, pk), k, pk)
            elif u:
                q = [(u * c + p * b) % pk for c, b in zip(q + [0], [0] + q)][:k]
            row.append(tuple(q))
        rows.append(tuple(row))
        block = q
    return tuple(rows)


def _eval(poly: list, s: int, pk: int) -> int:
    """poly(s) mod pk."""
    acc = 0
    for c in reversed(poly):
        acc = (acc * s + c) % pk
    return acc


def gamma_p(x: RationalLike, p: int, k: int) -> int:
    """G_p(x) mod p^k as an int in [0, p^k), for x in Z_p (denominator must
    be a p-unit)."""
    return GammaBatch(p, k).add(x).run().value(x)


class GammaBatch:
    """One set of digit tables answering many gamma queries at fixed (p, k).

    Arguments are registered up front (in any order, duplicates fine),
    run() reads every value from the tables for the largest representative,
    and value() reads each one back as a plain int.  An int argument is its
    own representative mod p^k; a Fraction is reduced.  The tables depend
    only on (p, k) and the number of digits of the largest representative,
    so run() reads them from _digit_rows, which caches the last 2 sets read:
    right sides that build one batch per alpha at one prime share a set
    instead of rebuilding it.  That cache is still deliberately not a
    cross-prime one, since the next prime's tables evict it; build one
    batch per (p, k) job and let it go.
    """

    def __init__(self, p: int, k: int):
        check_odd_prime(p)
        _check_precision(k)
        self.p = p
        self.k = k
        self._pk = p**k
        self._reps: set[int] = set()
        self._values: dict[int, int] | None = None

    def _rep(self, x: RationalLike) -> int:
        if isinstance(x, int):
            return x % self._pk
        return reduce_mod(x, self.p, self.k).value

    def add(self, x: RationalLike) -> "GammaBatch":
        if self._values is not None:
            raise RuntimeError("batch already swept; create a new one")
        self._reps.add(self._rep(x))
        return self

    def add_all(self, xs) -> "GammaBatch":
        for x in xs:
            self.add(x)
        return self

    @property
    def sweep_length(self) -> int:
        """The largest registered representative: where the tables end."""
        return max(self._reps, default=0)

    def run(self) -> "GammaBatch":
        if self._values is not None:
            return self
        p, pk = self.p, self._pk
        levels, top = 0, self.sweep_length
        while top:  # the number of base-p digits of the largest rep
            levels, top = levels + 1, top // p
        rows = _digit_rows(p, self.k, levels)
        values: dict[int, int] = {}
        for m in self._reps:
            acc, q = 1, m
            for row in rows:
                q, d = divmod(q, p)
                acc = acc * _eval(row[d], q, pk) % pk
            values[m] = -acc % pk if m % 2 else acc
        self._values = values
        return self

    def value(self, x: RationalLike) -> int:
        """G_p(x) mod p^k as an int in [0, p^k), for an x whose class mod
        p^k was registered (an int or a Fraction, as add() takes)."""
        if self._values is None:
            self.run()
        m = self._rep(x)
        try:
            return self._values[m]
        except KeyError:
            raise KeyError(
                f"argument {x} (rep {m}) was not registered before the run"
            ) from None
