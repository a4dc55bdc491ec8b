"""q-expansion of the weight-4 eta product and its prime coefficients."""

import math

import pytest

from supercon.arith import is_prime
from supercon.congruences import verify_kilbourn
from supercon.errors import LimitExceeded
from supercon.eta import QSeries, a_p, eta_product_qexp, expansion_updates

# coefficients frozen from an independent expansion of
# q * prod (1-q^(2n))^4 (1-q^(4n))^4
KNOWN = {1: 1, 3: -4, 5: -2, 7: 24, 9: -11, 11: -44, 13: 22, 15: 8, 17: 50, 19: 44}


def reference_expansion(limit: int) -> list[int]:
    """Slow direct product over dict-based polynomials, for cross-checking."""
    coeffs = {0: 1}
    for step in (2, 4):
        m = step
        while m <= limit:
            # multiply by (1 - q^m)^4 = 1 - 4q^m + 6q^2m - 4q^3m + q^4m
            binom = {0: 1, m: -4, 2 * m: 6, 3 * m: -4, 4 * m: 1}
            out = {}
            for e1, c1 in coeffs.items():
                for e2, c2 in binom.items():
                    e = e1 + e2
                    if e <= limit:
                        out[e] = out.get(e, 0) + c1 * c2
            coeffs = out
            m += step
    shifted = [0] * (limit + 1)
    for e, c in coeffs.items():
        if e + 1 <= limit:
            shifted[e + 1] = c
    return shifted


def loop_expansion(limit: int) -> list[int]:
    """The eight-pass loop the Jacobi/Euler expansion replaced: each factor
    (1 - q^m)^4 as four in-place passes of c[i] -= c[i-m], O(limit^2)."""
    c = [0] * (limit + 1)
    c[1] = 1
    for step in (2, 4):
        m = step
        while m <= limit:
            for _ in range(4):
                for i in range(limit, m - 1, -1):
                    c[i] -= c[i - m]
            m += step
    return c


def test_first_coefficients():
    series = eta_product_qexp(20)
    for n, want in KNOWN.items():
        assert series.coefficient(n) == want, n


def test_spec_example_limit_three():
    series = eta_product_qexp(3)
    assert [series.coefficient(i) for i in (1, 2, 3)] == [1, 0, -4]


def test_even_coefficients_vanish():
    # every exponent in the product is 1 + (even), so even entries are zero
    series = eta_product_qexp(60)
    assert all(series.coefficient(n) == 0 for n in range(2, 61, 2))


def test_matches_reference_expansion():
    limit = 80
    series = eta_product_qexp(limit)
    ref = reference_expansion(limit)
    assert [series.coefficient(n) for n in range(limit + 1)] == ref


def test_multiplicative_spot_checks():
    series = eta_product_qexp(100)
    a3, a5, a7 = (series.coefficient(n) for n in (3, 5, 7))
    assert series.coefficient(15) == a3 * a5
    assert series.coefficient(21) == a3 * a7
    assert series.coefficient(35) == a5 * a7
    # Hecke recursion at a prime power: a(9) = a(3)^2 - 3^3
    assert series.coefficient(9) == a3 * a3 - 27


def test_a_p():
    series = eta_product_qexp(100)
    assert a_p(3, series) == -4
    assert a_p(5, series) == -2
    assert a_p(97, series) == series.coefficient(97)
    with pytest.raises(ValueError):
        a_p(4, series)
    with pytest.raises(ValueError):
        a_p(2, series)


def test_limit_is_enforced():
    series = eta_product_qexp(10)
    assert series.limit == 10
    series.coefficient(10)
    with pytest.raises(LimitExceeded):
        series.coefficient(11)
    with pytest.raises(ValueError):
        series.coefficient(-1)


def test_coefficient_zero_is_zero():
    assert eta_product_qexp(5).coefficient(0) == 0


def test_qseries_is_plain_data():
    s = QSeries((0, 1, 0, -4))
    assert s.limit == 3
    assert s.coefficient(3) == -4


def test_matches_loop_expansion():
    for limit in [*range(1, 301), 401, 997, 2000]:
        assert list(eta_product_qexp(limit).coeffs) == loop_expansion(limit), limit


def test_expansion_updates():
    # four sparse factors, each term t^e updating m + 1 - e coefficients
    assert expansion_updates(1) == 4
    assert expansion_updates(997) == 38_664
    assert expansion_updates(2000) == 109_679
    assert expansion_updates(10**4) == 1_226_135
    assert expansion_updates(10**5) == 38_772_847


@pytest.fixture(scope="module")
def a():
    return eta_product_qexp(2000).coeffs


def test_hecke_prime_square(a):
    for p in range(3, 44):
        if is_prime(p):
            assert a[p * p] == a[p] ** 2 - p**3, p


def test_multiplicative_on_coprime_odd(a):
    for m in range(3, 2000, 2):
        for n in range(m + 2, 2000 // m + 1, 2):
            if math.gcd(m, n) == 1:
                assert a[m * n] == a[m] * a[n], (m, n)


def test_ramanujan_bound(a):
    # |a(p)| <= 2 p^(3/2), squared to stay in integers
    for p in range(3, 2001):
        if is_prime(p):
            assert a[p] ** 2 <= 4 * p**3, p


@pytest.mark.parametrize("p", [401, 997])
def test_kilbourn_at_sweep_endpoints(p):
    assert verify_kilbourn(p).holds
