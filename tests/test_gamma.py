"""p-adic gamma: values, laws, the block walk."""

from fractions import Fraction
from random import Random

import pytest

from supercon.arith import PrimePowerResidue, least_residue, reduce_mod, vp
from supercon.errors import NonUnitDenominator
from supercon.gamma import GammaBatch, gamma_p, residue_rep

F = Fraction


def brute_gamma(m: int, p: int, pk: int) -> int:
    """Direct product definition for non-negative integer arguments."""
    out = 1
    for j in range(1, m):
        if j % p:
            out = out * j % pk
    return (-out if m % 2 else out) % pk


def test_integer_values_match_product_definition():
    for p, k in ((3, 2), (5, 3), (7, 2)):
        pk = p**k
        for m in range(0, 40):
            assert gamma_p(m, p, k).value == brute_gamma(m, p, pk), (p, k, m)


def test_known_values():
    assert gamma_p(1, 5, 3).value == 124  # the class of -1
    assert gamma_p(0, 7, 2).value == 1
    assert gamma_p(F(1, 2), 5, 1).value == 3


def test_depends_only_on_class_mod_pk():
    rng = Random(11)
    for _ in range(40):
        p, k = rng.choice([(5, 2), (7, 3), (11, 1)])
        x = F(rng.randint(-300, 300), rng.choice([1, 2, 3, 4, 6]))
        shift = rng.randint(1, 5) * p**k
        assert gamma_p(x, p, k) == gamma_p(x + shift, p, k)


def test_rejects_p_in_denominator():
    with pytest.raises(NonUnitDenominator):
        gamma_p(F(1, 5), 5, 3)


def test_residue_rep_lands_in_one_to_p():
    assert residue_rep(F(1, 2), 5) == 3
    assert residue_rep(5, 5) == 5  # the class of zero maps to p, not 0
    assert residue_rep(0, 7) == 7
    assert residue_rep(1, 7) == 1
    rng = Random(23)
    for _ in range(100):
        x = F(rng.randint(-99, 99), rng.choice([1, 2, 3, 4]))
        r = residue_rep(x, 13)
        assert 1 <= r <= 13
        assert (x - r).numerator % 13 == 0


def test_reflection_law():
    """gamma(x) * gamma(1-x) == (-1)^(residue rep of x) across random x."""
    rng = Random(2024)
    for p in (5, 13, 31):
        k = 3
        pk = p**k
        for _ in range(70):
            x = F(rng.randint(-pk, pk), rng.choice([1, 2, 3, 4, 6, 7]))
            if vp(x, p) < 0:
                continue
            sign = -1 if residue_rep(x, p) % 2 else 1
            assert gamma_p(x, p, k) * gamma_p(1 - x, p, k) == PrimePowerResidue(p, k, sign)


def test_shift_law_unit_and_nonunit():
    p, k = 7, 3
    rng = Random(55)
    for _ in range(60):
        x = F(rng.randint(-343, 343), rng.choice([1, 2, 3, 5]))
        lhs = gamma_p(x + 1, p, k)
        if least_residue(x, p) != 0:
            assert lhs == -reduce_mod(x, p, k) * gamma_p(x, p, k)
        else:
            assert lhs == -gamma_p(x, p, k)


def test_half_square_sign():
    # gamma(1/2)^2 is -1 exactly when (p+1)/2 is odd
    for p in (5, 7, 11, 13, 17):
        want = -1 if (p + 1) // 2 % 2 else 1
        assert gamma_p(F(1, 2), p, 3) ** 2 == PrimePowerResidue(p, 3, want)


def test_quarter_shift_quotient():
    # gamma(p/4) / gamma(1 + p/4) == -1 for p = 1 (mod 4)
    for p in (5, 13, 17, 29):
        q = gamma_p(F(p, 4), p, 3) / gamma_p(1 + F(p, 4), p, 3)
        assert q == PrimePowerResidue(p, 3, -1)


def test_third_difference_vanishes_mod_p3():
    """gamma(a), gamma(a+p), gamma(a+2p), gamma(a+3p) have zero third difference."""
    rng = Random(606)
    p, k = 11, 3
    zero = PrimePowerResidue(p, k, 0)
    for _ in range(25):
        a = F(rng.randint(-500, 500), rng.choice([1, 2, 3, 4, 6, 7, 9]))
        g = [gamma_p(a + m * p, p, k) for m in range(4)]
        assert g[0] - 3 * g[1] + 3 * g[2] - g[3] == zero


def test_batch_matches_single_calls():
    p, k = 13, 2
    args = [F(1, 2), 0, F(1, 4), F(3, 4), 7, F(1, 2), F(-5, 3)]
    batch = GammaBatch(p, k).add_all(args)
    batch.run()
    assert [batch.value(a) for a in args] == [gamma_p(a, p, k) for a in args]


def test_batch_value_requires_registration():
    batch = GammaBatch(5, 2).add(F(1, 2))
    batch.run()
    with pytest.raises(KeyError):
        batch.value(F(1, 3))


def _walk_cases(p: int, k: int, rng: Random) -> list[int]:
    """Edges of every block level, the top of the range, and random reps."""
    pk = p**k
    reps = [0, 1, 2, p - 1, p, p + 1, pk - 1]
    for level in range(2, k + 1):
        reps += [p**level - 1, p**level, p**level + 1]
    reps += [rng.randrange(pk) for _ in range(12)]
    return [m % pk for m in reps]


def test_block_walk_matches_unit_product():
    """The block walk against the plain unit product, every level edge."""
    rng = Random(4099)
    for p in (3, 5, 7, 11, 13, 23, 31):
        for k in range(1, 7):
            pk = p**k
            if pk > 1.2e6:
                continue
            reps = _walk_cases(p, k, rng)
            batch = GammaBatch(p, k).add_all(reps).run()
            for m in reps:
                want = brute_gamma(m, p, pk)
                assert batch.value(m).value == want, (p, k, m)
                assert gamma_p(m, p, k).value == want, (p, k, m)


def test_reflection_at_p97_k6():
    """Beyond brute force: gamma(x) * gamma(1-x) == +-1 mod 97^6."""
    p, k = 97, 6
    for x in (F(1, 3), F(1, 4), F(-7, 5), 12345678, F(p, 2)):
        sign = -1 if residue_rep(x, p) % 2 else 1
        assert gamma_p(x, p, k) * gamma_p(1 - x, p, k) == PrimePowerResidue(p, k, sign)
