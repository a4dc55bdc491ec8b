"""Integer q-expansions of the weight-4 eta product on level 8.

The series expanded here is

    q * prod_{n >= 1} (1 - q^(2n))^4 * (1 - q^(4n))^4  =  q * Y(q^2),

a normalized cusp form whose prime coefficients feed the truncated-series
congruence checks.  With f(t) = prod (1 - t^n), Y(t) = f(t)^4 f(t^2)^4 is
the product of four sparse series, J(t) P(t) J(t^2) P(t^2), where

    J = f^3 = sum_{n >= 0} (-1)^n (2n+1) t^(n(n+1)/2)    (Jacobi)
    P = f   = sum_{k in Z} (-1)^k t^(k(3k-1)/2)           (Euler, pentagonal)

each have O(sqrt(N)) terms below t^N, so the expansion costs about
N^(3/2) coefficient updates.  Coefficients are exact integers; truncation
is at a caller-chosen exponent and every coefficient up to it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import check_odd_prime
from .errors import LimitExceeded


@dataclass(frozen=True)
class QSeries:
    """A truncated power series in q with integer coefficients.

    coeffs[n] is the coefficient of q^n; everything above ``limit`` is
    unknown (not zero), so reading past the end is an error rather than
    a silent 0.
    """

    coeffs: tuple[int, ...]

    @property
    def limit(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> int:
        if n < 0:
            raise ValueError("negative exponent")
        if n > self.limit:
            raise LimitExceeded(
                f"coefficient of q^{n} requested; expansion stops at q^{self.limit}"
            )
        return self.coeffs[n]


def _sparse_factors(limit: int) -> tuple[int, list[list[tuple[int, int]]]]:
    """(m, factors) for an expansion through q^limit.

    Y is needed through t^m, m = (limit - 1) // 2.  Each factor J(t), P(t),
    J(t^2), P(t^2) is listed as its (exponent, coefficient) terms up to
    t^m, exponents ascending from the constant term (0, 1).
    """
    m = (limit - 1) // 2
    jacobi = []
    n = 0
    while n * (n + 1) // 2 <= m:
        jacobi.append((n * (n + 1) // 2, (-1) ** n * (2 * n + 1)))
        n += 1
    euler = [(0, 1)]
    k = 1
    while k * (3 * k - 1) // 2 <= m:
        euler.append((k * (3 * k - 1) // 2, (-1) ** k))
        euler.append((k * (3 * k + 1) // 2, (-1) ** k))
        k += 1
    factors = [
        [(scale * e, c) for e, c in terms if scale * e <= m]
        for scale in (1, 2)
        for terms in (jacobi, euler)
    ]
    return m, factors


def expansion_updates(limit: int) -> int:
    """Coefficient updates (ring multiplications) ``eta_product_qexp(limit)``
    makes: a term t^e of a factor updates the m + 1 - e coefficients it
    reaches.  Counted from the factor lists alone, in O(sqrt(limit)) time,
    without allocating the expansion."""
    m, factors = _sparse_factors(limit)
    return sum(m + 1 - e for terms in factors for e, _ in terms)


def eta_product_qexp(limit: int) -> QSeries:
    """Expand the eta product through q^limit.

    Y = J(t) P(t) J(t^2) P(t^2) is built through t^((limit-1)/2) by four
    in-place passes, one per sparse factor, each walked downward so a pass
    never reuses its own output; Y[n] is then the coefficient of q^(2n+1)
    and every even coefficient is 0.  The work is about limit^(3/2)
    updates, exactly ``expansion_updates(limit)``.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    m, factors = _sparse_factors(limit)
    y = [1] + [0] * m
    for terms in factors:
        for i in range(m, -1, -1):
            acc = 0
            for e, c in terms:
                if e > i:
                    break
                acc += c * y[i - e]
            y[i] = acc
    coeffs = [0] * (limit + 1)
    coeffs[1::2] = y
    return QSeries(tuple(coeffs))


def a_p(p: int, series: QSeries) -> int:
    """The p-th coefficient, for odd prime p within the expansion limit."""
    check_odd_prime(p)
    return series.coefficient(p)
