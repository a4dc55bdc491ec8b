"""p-adic gamma: values, laws, the digit tables against the block walk."""

import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction
from random import Random

import pytest

from supercon import cli, congruences
from supercon.arith import CycloElem, PrimePowerResidue, least_residue, reduce_mod, vp
from supercon.errors import NonUnitDenominator
from supercon.gamma import GammaBatch, gamma_p

F = Fraction


def residue_rep(x, p: int) -> int:
    """The representative of x mod p in {1, ..., p}: the reflection law's
    exponent, which sends the class of zero to p, not 0."""
    return least_residue(x, p) or p


def brute_gamma(m: int, p: int, pk: int) -> int:
    """Direct product definition for non-negative integer arguments."""
    out = 1
    for j in range(1, m):
        if j % p:
            out = out * j % pk
    return (-out if m % 2 else out) % pk


# The former evaluator, kept as the reference for the digit tables: one
# ascending walk over aligned blocks, O(p k) block evaluations per value.


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


def block_walk_gamma(reps, p: int, k: int) -> dict:
    """G_p(m) mod p^k for each representative m in [0, p^k), by the walk."""
    pk = p**k
    levels = _block_polys(p, k, max(reps, default=0))
    values = {}
    acc = 1
    cur = 0  # acc is the product of the units in [0, cur)
    for m in sorted(set(reps)):
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
        values[m] = val
    return values


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
        g = gamma_p(x, p, k).value
        if least_residue(x, p) != 0:
            assert lhs.value == -reduce_mod(x, p, k).value * g % p**k
        else:
            assert lhs.value == -g % p**k


def test_half_square_sign():
    # gamma(1/2)^2 is -1 exactly when (p+1)/2 is odd
    for p in (5, 7, 11, 13, 17):
        want = -1 if (p + 1) // 2 % 2 else 1
        assert gamma_p(F(1, 2), p, 3) ** 2 == PrimePowerResidue(p, 3, want)


def test_quarter_shift_quotient():
    # gamma(p/4) / gamma(1 + p/4) == -1 for p = 1 (mod 4)
    for p in (5, 13, 17, 29):
        minus_one = PrimePowerResidue(p, 3, -1)
        assert gamma_p(F(p, 4), p, 3) == minus_one * gamma_p(1 + F(p, 4), p, 3)


def test_third_difference_vanishes_mod_p3():
    """gamma(a), gamma(a+p), gamma(a+2p), gamma(a+3p) have zero third difference."""
    rng = Random(606)
    p, k = 11, 3
    for _ in range(25):
        a = F(rng.randint(-500, 500), rng.choice([1, 2, 3, 4, 6, 7, 9]))
        g = [gamma_p(a + m * p, p, k).value for m in range(4)]
        assert (g[0] - 3 * g[1] + 3 * g[2] - g[3]) % p**k == 0


def test_batch_matches_single_calls():
    p, k = 13, 2
    args = [F(1, 2), 0, F(1, 4), F(3, 4), 7, F(1, 2), F(-5, 3)]
    batch = GammaBatch(p, k).add_all(args)
    batch.run()
    assert [batch.value(a) for a in args] == [gamma_p(a, p, k).value for a in args]


def test_batch_value_requires_registration():
    batch = GammaBatch(5, 2).add(F(1, 2))
    batch.run()
    with pytest.raises(KeyError):
        batch.value(F(1, 3))


def test_int_argument_is_its_own_representative():
    """add(m) for an int registers what add(Fraction(m)) does, and value()
    reads the same int for any int or Fraction in the class."""
    rng = Random(1818)
    for p, k in ((5, 3), (13, 2), (101, 3)):
        pk = p**k
        ints = [0, 1, -1, pk, -pk - 3, 3 * pk + 7]
        ints += [rng.randrange(-5 * pk, 5 * pk) for _ in range(10)]
        by_int = GammaBatch(p, k).add_all(ints).run()
        by_fraction = GammaBatch(p, k).add_all(F(m) for m in ints).run()
        assert by_int._reps == by_fraction._reps
        for m in ints:
            assert by_int.value(m) == by_fraction.value(F(m)), (p, k, m)
            assert by_int.value(m - 2 * pk) == by_int.value(m), (p, k, m)


def test_unregistered_reads_name_the_argument():
    batch = GammaBatch(5, 2).add(F(1, 2)).add(7).run()
    assert batch.value(7 + 25) == batch.value(7) == gamma_p(7, 5, 2).value
    with pytest.raises(KeyError, match=r"argument 33 \(rep 8\) was not registered"):
        batch.value(33)
    with pytest.raises(KeyError, match=r"argument 1/3 \(rep 17\) was not registered"):
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
    """The reference walk and the digit tables against the plain unit
    product, every level edge."""
    rng = Random(4099)
    for p in (3, 5, 7, 11, 13, 23, 31):
        for k in range(1, 7):
            pk = p**k
            if pk > 1.2e6:
                continue
            reps = _walk_cases(p, k, rng)
            walk = block_walk_gamma(reps, p, k)
            batch = GammaBatch(p, k).add_all(reps).run()
            for m in reps:
                want = brute_gamma(m, p, pk)
                assert walk[m] == want, (p, k, m)
                assert batch.value(m) == want, (p, k, m)
                assert gamma_p(m, p, k).value == want, (p, k, m)


def _digit_cases(p: int, k: int, rng: Random) -> list[int]:
    """Level edges, plus draws whose digits are mostly 0 or p - 1."""
    reps = _walk_cases(p, k, rng)
    for _ in range(8):
        digits = [rng.choice((0, p - 1, rng.randrange(p))) for _ in range(k)]
        reps.append(sum(d * p**i for i, d in enumerate(digits)))
    return reps


def _assert_batch_matches_walk(p: int, k: int, reps) -> None:
    batch = GammaBatch(p, k).add_all(reps).run()
    walk = block_walk_gamma([m % p**k for m in reps], p, k)
    for m in reps:
        assert batch.value(m) == walk[m % p**k], (p, k, m)


def test_digit_tables_match_block_walk():
    """Seeded batches from p = 3 to 997 at every precision 1..6."""
    rng = Random(1717)
    for p in (3, 5, 7, 11, 13, 23, 97, 101, 173, 401, 997):
        for k in range(1, 7):
            _assert_batch_matches_walk(p, k, _digit_cases(p, k, rng))
            # a batch that ends below the top level of the full range
            _assert_batch_matches_walk(p, k, [rng.randrange(p**k) // p])


def test_digit_tables_match_block_walk_at_the_largest_precision():
    p, k = 997, 6
    m = reduce_mod(F(1, 3), p, k).value
    assert gamma_p(F(1, 3), p, k).value == block_walk_gamma([m], p, k)[m]


_BENCH_SWEEPS = (
    # the catalog-5-97 and gamma-hi argv of bench/run.py
    ["--primes", "5..97"],
    [
        "--primes",
        "5,7,11,13,17,19,23,101,103,107,109,113,127,131,137,139,149,151,"
        "157,163,167,173",
        "--id",
        "gamma-laws,mccarthy-osburn-1.3,long-ramakrishna-p6",
    ],
)


def test_benchmark_gamma_jobs_match_block_walk(monkeypatch):
    """Every GammaBatch job of the two benchmark sweeps that run Gamma_p.

    The jobs are recorded by wrapping GammaBatch.run.  The layers that make
    no gamma query are stubbed so the sweeps take well under a second; the
    right sides, and so the gamma jobs, are built as in a real run.
    """
    jobs = []
    run = GammaBatch.run

    def recording_run(self):
        jobs.append((self.p, self.k, sorted(self._reps)))
        return run(self)

    monkeypatch.setattr(GammaBatch, "run", recording_run)
    monkeypatch.setattr(
        congruences, "_series_class", lambda spec, p, k: PrimePowerResidue(p, k, 0)
    )
    zero = CycloElem(0, 0)
    monkeypatch.setattr(congruences, "ff1_build", lambda p, alpha: (zero, zero))
    monkeypatch.setattr(congruences, "gs_lhs", lambda g: zero)
    monkeypatch.setattr(congruences, "gs_rhs", lambda g: zero)
    monkeypatch.setattr(congruences, "a_p", lambda p, coeffs: 0)
    monkeypatch.setattr(congruences, "eta_product_qexp", lambda p: None)
    monkeypatch.setattr(
        congruences,
        "verify_ff2",
        lambda p, u, v, kmax: congruences._report("ff-3.2", p, {}, 3, 0, 0, 0.0),
    )
    for argv in _BENCH_SWEEPS:
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(["verify", "--format", "json", "--seed", "0"] + argv)
        reports = [json.loads(line) for line in out.getvalue().splitlines()]
        assert reports and not [r for r in reports if "error" in r["params"]]
    assert len(jobs) == 348 + 39  # catalog-5-97, gamma-hi
    for p, k, reps in jobs:
        walk = block_walk_gamma(reps, p, k)
        batch = GammaBatch(p, k).add_all(reps)
        run(batch)
        assert {m: batch.value(m) for m in reps} == walk, (p, k)


def test_reflection_at_p97_k6():
    """Beyond brute force: gamma(x) * gamma(1-x) == +-1 mod 97^6."""
    p, k = 97, 6
    for x in (F(1, 3), F(1, 4), F(-7, 5), 12345678, F(p, 2)):
        sign = -1 if residue_rep(x, p) % 2 else 1
        assert gamma_p(x, p, k) * gamma_p(1 - x, p, k) == PrimePowerResidue(p, k, sign)
