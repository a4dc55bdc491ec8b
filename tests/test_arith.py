"""Scalar layer: residues, capped p-adics, cyclotomic elements."""

import math
import operator
from fractions import Fraction
from random import Random

import pytest

from supercon.arith import (
    INFINITY,
    MAX_PRECISION,
    OMEGA,
    CycloElem,
    PadicCapped,
    PrimePowerResidue,
    check_odd_prime,
    cyclo_reduce,
    is_prime,
    least_residue,
    primes_in,
    reduce_mod,
    vp,
)
from supercon.errors import (
    NonInvertible,
    NonUnitDenominator,
    PrecisionExhausted,
    PrecisionOutOfRange,
)

F = Fraction


def test_is_prime_small_table():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_primes_in_is_inclusive():
    assert primes_in(5, 13) == (5, 7, 11, 13)
    assert primes_in(14, 16) == ()
    assert primes_in(97, 97) == (97,)


@pytest.mark.parametrize("bad", [2, 4, 9, -3, 1])
def test_check_odd_prime_rejects(bad):
    with pytest.raises(ValueError):
        check_odd_prime(bad)


def test_vp_basics():
    assert vp(12, 2) == 2
    assert vp(12, 3) == 1
    assert vp(F(3, 4), 2) == -2
    assert vp(F(9, 5), 3) == 2
    assert vp(0, 7) == INFINITY
    assert math.isinf(vp(F(0), 5))


def test_reduce_mod_values():
    assert reduce_mod(F(1, 2), 5, 3).value == 63
    assert reduce_mod(F(435, 512), 5, 3).value == 5
    assert reduce_mod(-1, 3, 3).value == 26
    assert reduce_mod(7, 7, 2).value == 7


def test_reduce_mod_rejects_p_in_denominator():
    with pytest.raises(NonUnitDenominator):
        reduce_mod(F(1, 5), 5, 3)
    with pytest.raises(NonUnitDenominator):
        reduce_mod(F(3, 50), 5, 2)


def test_precision_window():
    assert MAX_PRECISION == 6
    for bad in (0, 7, -1):
        with pytest.raises(PrecisionOutOfRange):
            reduce_mod(F(1, 2), 5, bad)
    reduce_mod(F(1, 2), 5, 6)  # top of the window is allowed


def test_reduce_mod_is_a_ring_homomorphism():
    """reduce(x op y) == reduce(x) op reduce(y) for +, -, *, / on random input;
    sums, differences and quotients are taken on the values mod p^k."""
    rng = Random(20260816)
    p, k = 7, 4
    m = p**k
    for _ in range(1000):
        num_a, num_b = rng.randint(-500, 500), rng.randint(-500, 500)
        den_a, den_b = rng.randint(1, 60), rng.randint(1, 60)
        if den_a % p == 0 or den_b % p == 0:
            continue
        a, b = F(num_a, den_a), F(num_b, den_b)
        ra, rb = reduce_mod(a, p, k), reduce_mod(b, p, k)
        assert reduce_mod(a + b, p, k).value == (ra.value + rb.value) % m
        assert reduce_mod(a - b, p, k).value == (ra.value - rb.value) % m
        assert reduce_mod(a * b, p, k) == ra * rb
        if least_residue(b, p) != 0:
            quotient = ra.value * pow(rb.value, -1, m) % m
            assert reduce_mod(a / b, p, k).value == quotient


def test_least_residue():
    assert least_residue(F(1, 2), 5) == 3
    assert least_residue(F(1, 4), 5) == 4
    assert least_residue(10, 5) == 0
    assert least_residue(F(-1, 3), 7) == 2


class TestPrimePowerResidue:
    def test_normalization_and_str(self):
        r = PrimePowerResidue(5, 3, -1)
        assert r.value == 124
        assert r == PrimePowerResidue(5, 3, 124) == reduce_mod(-1, 5, 3)

    def test_mixed_int_arithmetic(self):
        """Only products mix with ints; sums and negation are on .value."""
        r = PrimePowerResidue(5, 2, 7)
        assert (2 * r).value == 14
        assert (r * 4).value == 3
        for op in (lambda: r + 3, lambda: 3 + r, lambda: r - 10, lambda: 10 - r,
                   lambda: -r):
            with pytest.raises(TypeError):
                op()

    def test_division_and_pow(self):
        """A residue does not divide, invert or take powers; those are
        taken on `.value` ints."""
        r = PrimePowerResidue(7, 2, 3)
        assert (r * r * r).value == pow(r.value, 3, 7**2) == 27
        assert not hasattr(r, "inverse")
        for op in (lambda: r / r, lambda: 1 / r, lambda: r ** 2, lambda: r ** -1):
            with pytest.raises(TypeError):
                op()

    def test_mismatched_rings_do_not_mix(self):
        a = PrimePowerResidue(5, 3, 1)
        b = PrimePowerResidue(7, 3, 1)
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError):
            a * PrimePowerResidue(5, 2, 1)


class TestPadicCapped:
    def test_from_rational_splits_valuation(self):
        x = PadicCapped.from_rational(F(50, 3), 5, 4)
        assert x.valuation == 2
        assert x.residue(3) == reduce_mod(F(50, 3), 5, 3).value

    def test_zero_is_exact(self):
        z = PadicCapped.from_rational(0, 5, 3)
        assert z.valuation == z.abs_precision == INFINITY
        assert z.residue(MAX_PRECISION) == 0

    def test_full_cancellation_keeps_its_precision(self):
        # 7/2 - 7/2 cancels exactly; 1 + 124 = 5^3 only through the digits
        # in hand, and its digits at 5^3 and beyond were never computed.
        for a, b in ((F(7, 2), F(-7, 2)), (1, 124)):
            xa, xb = (PadicCapped.from_rational(x, 5, 3) for x in (a, b))
            zero = xa + xb
            assert (zero.valuation, zero.precision, zero.abs_precision) == (3, 0, 3)
            assert zero.residue(3) == 0
            with pytest.raises(PrecisionExhausted):
                zero.residue(4)
            # a later summand known mod 5^4 cannot restore the lost digit
            assert (zero + PadicCapped.from_rational(15, 5, 3)).abs_precision == 3

    def test_zero_times_or_over_a_unit_keeps_finite_precision(self):
        one = PadicCapped.from_rational(1, 5, 2)
        zero = one + PadicCapped.from_rational(-1, 5, 2)
        y = PadicCapped.from_rational(F(25, 3), 5, 3)
        assert ((zero * y).valuation, (zero * y).precision) == (4, 0)
        assert ((zero / y).valuation, (zero / y).precision) == (0, 0)
        assert (zero * y).residue(4) == 0
        with pytest.raises(PrecisionExhausted):
            (zero / y).residue(1)

    def test_division_by_any_zero_raises(self):
        one = PadicCapped.from_rational(1, 7, 3)
        cancelled = one + PadicCapped.from_rational(-1, 7, 3)
        for zero in (PadicCapped.from_rational(0, 7, 3), cancelled):
            with pytest.raises(ZeroDivisionError):
                one / zero

    def test_addition_matches_rationals(self):
        rng = Random(404)
        p = 11
        for _ in range(300):
            a = F(rng.randint(-200, 200), rng.choice([1, 2, 3, 4, 6, 7, 9]))
            b = F(rng.randint(-200, 200), rng.choice([1, 2, 3, 4, 6, 7, 9]))
            xa = PadicCapped.from_rational(a, p, 4)
            xb = PadicCapped.from_rational(b, p, 4)
            total = xa + xb
            if vp(a + b, p) >= 0:
                k = min(3, total.abs_precision)
                if k >= 1:
                    assert total.residue(k) == reduce_mod(a + b, p, k).value

    def test_mul_and_div(self):
        p = 7
        x = PadicCapped.from_rational(F(14, 3), p, 3)
        y = PadicCapped.from_rational(F(2, 5), p, 3)
        assert (x * y).residue(3) == reduce_mod(F(28, 15), p, 3).value
        assert (x / y).residue(3) == reduce_mod(F(35, 3), p, 3).value

    def test_negative_valuation_residue_fails(self):
        x = PadicCapped.from_rational(F(1, 5), 5, 3)
        assert x.valuation == -1
        with pytest.raises(PrecisionExhausted):
            x.residue(2)

    def test_residue_beyond_precision_fails(self):
        x = PadicCapped.from_rational(F(3), 5, 2)
        with pytest.raises(PrecisionExhausted):
            x.residue(3)

    def test_high_valuation_residue_is_zero(self):
        x = PadicCapped.from_rational(F(125), 5, 2)
        assert x.residue(3) == 0

    def test_from_rational_matches_integer_embed_of_any_multiple(self):
        """from_rational(a/b) equals from_ratio(a*c, b*c) for any c != 0,
        p in either side included, and the former Fraction embed."""
        rng = Random(2525)

        def draw(p):
            m = rng.randint(1, 10**rng.randint(1, 8))
            return m * p ** rng.choice((0, 0, 1, 2, 4)) * rng.choice((1, -1))

        seen = {"p in num": 0, "p in den": 0, "zero": 0, "negative": 0}
        for _ in range(4000):
            p = rng.choice((3, 5, 7, 401))
            k = rng.randint(1, MAX_PRECISION)
            a = 0 if rng.random() < 0.05 else draw(p)
            b, c = draw(p), draw(p)
            x = F(a, b)
            got = PadicCapped.from_rational(x, p, k)
            assert got == PadicCapped.from_ratio(a * c, b * c, p, k), (a, b, c, p, k)
            assert got == fraction_from_rational(x, p, k), (x, p, k)
            seen["p in num"] += a != 0 and a % p == 0 and c % p == 0
            seen["p in den"] += b % p == 0 and c % p == 0
            seen["zero"] += a == 0
            seen["negative"] += x < 0
        assert min(seen.values()) >= 100, seen

    def test_integer_embed_refuses_a_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            PadicCapped.from_ratio(3, 0, 5, 2)


def fraction_from_rational(x, p, precision):
    """Reference: the former from_rational, which split off p^v as a Fraction."""
    x = F(x)
    if x == 0:
        return PadicCapped(p, INFINITY, 0, 0)
    v = vp(x, p)
    u = x / F(p) ** v
    m = p**precision
    return PadicCapped(p, v, u.numerator * pow(u.denominator, -1, m) % m, precision)


class TestCycloElem:
    def test_omega_satisfies_its_polynomial(self):
        zero = OMEGA * OMEGA + OMEGA + 1
        assert zero == 0
        assert zero == CycloElem(F(0), F(0))

    def test_cube_is_one(self):
        assert OMEGA * OMEGA * OMEGA == CycloElem(F(1), F(0))
        with pytest.raises(TypeError):  # no **: powers are written as products
            OMEGA ** 3

    def test_conjugate_is_the_other_root(self):
        w2 = OMEGA.conjugate()
        assert w2 == CycloElem(F(-1), F(-1))
        assert w2 * w2 * w2 == CycloElem(F(1), F(0))

    def test_norm_multiplicative(self):
        rng = Random(77)
        for _ in range(200):
            x = CycloElem(F(rng.randint(-9, 9), rng.randint(1, 5)),
                          F(rng.randint(-9, 9), rng.randint(1, 5)))
            y = CycloElem(F(rng.randint(-9, 9), rng.randint(1, 5)),
                          F(rng.randint(-9, 9), rng.randint(1, 5)))
            assert (x * y).norm() == x.norm() * y.norm()

    def test_norm_is_product_with_conjugate(self):
        x = CycloElem(F(3, 2), F(-5, 7))
        prod = x * x.conjugate()
        assert prod.c1 == 0
        assert prod.c0 == x.norm()

    def test_exact_inverse(self):
        x = CycloElem(F(2), F(-3, 4))
        assert x * x.inverse() == CycloElem(F(1), F(0))
        assert (x / x) == CycloElem(F(1), F(0))
        with pytest.raises(NonInvertible):
            CycloElem(F(0), F(0)).inverse()

    def test_cyclo_reduce_is_coordinatewise(self):
        x = CycloElem(F(1, 2), F(-1, 3))
        r = cyclo_reduce(x, 7, 2)
        assert r.c0 == reduce_mod(F(1, 2), 7, 2).value
        assert r.c1 == reduce_mod(F(-1, 3), 7, 2).value
        assert str(r) == f"{r.c0} + {r.c1}*w"
        assert cyclo_reduce(r, 7, 2) == r
        with pytest.raises(NonUnitDenominator):
            cyclo_reduce(CycloElem(F(1, 7), F(0)), 7, 2)
        with pytest.raises(TypeError):
            cyclo_reduce(F(1, 2), 7, 2)

    def test_equals_rationals_on_the_rational_axis(self):
        for c in (0, 7, -3, F(1, 2), F(-5, 3)):
            x = CycloElem(c, 0)
            assert x == c and c == x
            assert x == F(c) and F(c) == x
            assert hash(x) == hash(c) == hash(F(c))
            assert x + OMEGA != c and c != x + OMEGA
        assert {CycloElem(2, 0): "two"}[2] == "two"
        assert len({CycloElem(F(1, 2), 0), F(1, 2), CycloElem(F(1, 2), 1)}) == 2
        assert CycloElem(1, 0) != "1"

    def test_rational_divided_by_cyclo(self):
        x = CycloElem(F(2), F(-3, 4))
        assert F(1, 3) / x == CycloElem(F(1, 3), 0) / x
        assert 5 / x * x == 5
        with pytest.raises(NonInvertible):
            1 / CycloElem(0, 0)

    def test_mixed_scalar_arithmetic(self):
        x = OMEGA + 1
        assert x.c0 == 1 and x.c1 == 1
        y = x * F(1, 2)
        assert y == CycloElem(F(1, 2), F(1, 2))

        def outcome(op, a, b):
            try:
                r = op(a, b)
            except ZeroDivisionError as e:
                return type(e), str(e)
            if isinstance(r, CycloElem):
                return r, type(r.c0), type(r.c1), str(r)
            return r, type(r)

        # an int, bool or Fraction operand acts as CycloElem(m, 0) would,
        # coordinate types included, on either side
        ops = (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.eq, operator.ne)
        elems = (x, CycloElem(0, 0), CycloElem(3, -2), CycloElem(F(2, 3), 0),
                 CycloElem(F(-1, 2), F(5, 3)), CycloElem(4, F(1, 3)))
        for m in (0, 1, -7, True, False, F(1, 2), F(-5, 3), F(4)):
            promoted = CycloElem(m, 0)
            for e in elems:
                for op in ops:
                    assert outcome(op, e, m) == outcome(op, e, promoted), (op, e, m)
                    assert outcome(op, m, e) == outcome(op, promoted, e), (op, m, e)
            assert promoted == m and hash(promoted) == hash(m)
        assert (1 / CycloElem(2, 0)).c0 == F(1, 2)
        for e in elems:
            for op in ops[:4]:
                with pytest.raises(TypeError):
                    op(e, 0.5)
                with pytest.raises(TypeError):
                    op(0.5, e)
            assert e != 0.5 and not e == 0.5 and not 0.5 == e

    def test_modular_ring_arithmetic_matches_exact(self):
        rng = Random(9090)
        for p, k in ((5, 3), (7, 1), (13, 2)):
            m = p**k
            for _ in range(200):
                x = CycloElem(F(rng.randint(-40, 40), rng.choice([1, 2, 3])),
                              F(rng.randint(-40, 40), rng.choice([1, 2, 3])))
                y = CycloElem(F(rng.randint(-40, 40), rng.choice([1, 2, 3])),
                              F(rng.randint(-40, 40), rng.choice([1, 2, 3])))
                rx, ry = cyclo_reduce(x, p, k), cyclo_reduce(y, p, k)
                for c in (rx.c0, rx.c1, ry.c0, ry.c1):
                    assert c.denominator == 1 and 0 <= c < m
                assert cyclo_reduce(x * y, p, k) == cyclo_reduce(rx * ry, p, k)
                assert cyclo_reduce(x + y, p, k) == cyclo_reduce(rx + ry, p, k)
                assert cyclo_reduce(x - y, p, k) == cyclo_reduce(rx - ry, p, k)

    def test_int_coordinates_stay_int_and_match_fraction_arithmetic(self):
        """Int-coordinate operands keep int coordinates through +, -, * and
        cyclo_reduce, with the values Fraction coordinates give."""
        rng = Random(2222)

        def promoted(x):
            return CycloElem(F(x.c0), F(x.c1))

        def ops(x, y, m):
            return (x + y, x - y, x * y, x + m, m + x, x - m, m - x,
                    x * m, m * x, x.conjugate(), cyclo_reduce(x * y, 7, 3))

        for _ in range(300):
            x = CycloElem(rng.randint(-60, 60), rng.randint(-60, 60))
            y = CycloElem(rng.randint(-60, 60), rng.randint(-60, 60))
            m = rng.randint(-9, 9)
            got = ops(x, y, m)
            want = ops(promoted(x), promoted(y), m)
            # the reference ran on Fractions (cyclo_reduce, last, gives ints)
            assert all(type(e.c0) is F for e in want[:-1])
            for g, e in zip(got, want):
                assert (type(g.c0), type(g.c1)) == (int, int), (x, y, m)
                assert g == e and str(g) == str(e), (x, y, m)
            assert type(x.norm()) is int and x.norm() == promoted(x).norm()
            if x != 0:
                inv = x.inverse()
                assert (type(inv.c0), type(inv.c1)) == (F, F)
                assert inv == promoted(x).inverse() and x * inv == 1
        flag = CycloElem(True, False)
        assert (type(flag.c0), type(flag.c1)) == (int, int) and flag == 1

    def test_inverse_of_int_coordinates_is_exact(self):
        assert CycloElem(2, 0).inverse() == CycloElem(F(1, 2), 0)
        x = CycloElem(3, -1)  # norm 9 + 3 + 1 = 13
        assert x.norm() == 13
        assert x.inverse() == CycloElem(F(4, 13), F(1, 13))
        assert 1 / x == x.inverse() and x / x == 1
