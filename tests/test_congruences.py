"""Checkers and the sweep: reports, domains, error handling, determinism."""

import concurrent.futures
import re
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import supercon.congruences as congruences
from supercon.arith import (
    OMEGA,
    CycloElem,
    cyclo_reduce,
    primes_in,
    reduce_mod,
)
from supercon.congruences import (
    CATALOG,
    SweepConfig,
    sweep,
    verify_cor_6f5,
    verify_cor_quarter,
    verify_ff1,
    verify_ff2,
    verify_ff3,
    verify_gamma_laws,
    verify_gs,
    verify_kilbourn,
    verify_long_ramakrishna,
    verify_main,
    verify_mccarthy_osburn,
    verify_zudilin,
)
from supercon.errors import (
    AlphaOutOfRange,
    HypothesisViolated,
    NonUnitDenominator,
    OracleMismatch,
    PrecisionExhausted,
)
from supercon.eta import eta_product_qexp
from supercon.gamma import gamma_p
from supercon.hyper import pfq_exact, pochhammer

F = Fraction


def strip(reports):
    """Everything except the timing, which is the one nondeterministic field."""
    return [(r.id, r.p, r.params, r.k, r.lhs, r.rhs, r.holds) for r in reports]


def test_catalog_is_fixed():
    assert len(CATALOG) == 12
    assert CATALOG[0] == "kilbourn-1.1"
    assert "gamma-laws" in CATALOG


def test_readme_id_table_lists_the_catalog():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    ids = re.findall(r"^\| ([a-z0-9.]+-[a-z0-9.-]+) +\|", readme.read_text(), re.M)
    assert ids == list(CATALOG)


def test_report_record_shape():
    r = verify_zudilin(5)
    rec = r.record()
    assert list(rec) == ["id", "p", "params", "modulus", "lhs", "rhs", "holds", "elapsed_ms"]
    assert rec["modulus"] == "125"
    assert r.modulus == "125"
    exact = verify_gs(samples=5, seed=1)
    assert exact.modulus == "exact"


def test_kilbourn_small_primes():
    qexp = eta_product_qexp(100)
    r3 = verify_kilbourn(3, qexp)
    assert r3.holds and r3.lhs == "23"
    for p in (5, 7, 11, 13):
        assert verify_kilbourn(p, qexp).holds


def test_zudilin_both_sign_classes():
    r5 = verify_zudilin(5)
    assert r5.holds and r5.rhs == "5"  # p = 1 (mod 4): +p
    r7 = verify_zudilin(7)
    assert r7.holds and r7.rhs == str(7**3 - 7)  # p = 3 (mod 4): -p


def test_mccarthy_osburn_zero_and_nonzero():
    assert verify_mccarthy_osburn(5).holds
    r7 = verify_mccarthy_osburn(7)
    assert r7.holds and r7.rhs == "0"
    with pytest.raises(ValueError):
        verify_mccarthy_osburn(3)


def test_mccarthy_osburn_rhs_needs_gamma_mod_p2_only():
    """-p * Gamma_p(3/4)^-4 mod p^3 is unchanged when Gamma is read mod p^2."""
    for p in primes_in(5, 97):
        if p % 4 == 1:
            old = reduce_mod(-p, p, 3) * gamma_p(F(3, 4), p, 3) ** (-4)
            assert verify_mccarthy_osburn(p).rhs == str(old), p


def test_long_ramakrishna_both_classes():
    assert verify_long_ramakrishna(7).holds   # 1 mod 6
    assert verify_long_ramakrishna(11).holds  # 5 mod 6
    assert verify_long_ramakrishna(29).holds  # 5 mod 6, past the catalog's 23
    assert verify_long_ramakrishna(31).holds  # 1 mod 6: precision-5 gamma


def test_main_branches():
    r = verify_main(13, 3)
    assert r.holds and r.params == {"alpha": "3"}
    assert verify_main(13, F(1, 7)).holds  # rational alpha, residue 2
    r7 = verify_main(7, 1)
    assert r7.holds and r7.rhs == "0"
    with pytest.raises(AlphaOutOfRange):
        verify_main(5, 2)
    with pytest.raises(NonUnitDenominator):
        verify_main(5, F(1, 5))


def test_corollaries():
    for p in (5, 7, 13):
        assert verify_cor_quarter(p).holds
        assert verify_cor_6f5(p).holds


def test_gs_randomized_is_clean():
    for seed in (0, 42):
        r = verify_gs(samples=40, seed=seed)
        assert r.holds
        assert r.p == 0 and r.k == 0
        assert r.lhs == "5/4"


def test_ff1_exact():
    assert verify_ff1(5, 1).holds
    assert verify_ff1(7, 0).holds
    r = verify_ff1(13, 2)
    assert r.holds and r.modulus == "exact"


def test_ff2_inputs():
    assert verify_ff2(5, F(1, 2), F(-1, 3), 2).holds
    assert verify_ff2(7, F(0), F(1), 3).holds
    with pytest.raises(NonUnitDenominator):
        verify_ff2(5, F(1, 5), F(1), 2)
    with pytest.raises(ValueError):
        verify_ff2(5, F(1), F(1), 3)  # kmax beyond (p-1)/2


def test_ff3_domain():
    assert verify_ff3(13, 0).holds
    assert verify_ff3(13, 3).holds
    with pytest.raises(ValueError):
        verify_ff3(7, 0)  # wrong class mod 4


_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


def hand_built_quotient(p, alpha):
    """ff-3.3's former left side: the eight Pochhammers written out by hand."""
    r = (p - 1) // 4
    w2p = OMEGA.conjugate() * p
    num = (
        pochhammer(_HALF, r)
        * pochhammer(Fraction(5, 4), r)
        * pochhammer((4 * alpha + 3 + w2p) * _QUARTER, r)
        * pochhammer((2 - 4 * alpha + w2p) * _QUARTER, r)
    )
    den = (
        pochhammer((1 + w2p) * _QUARTER, r)
        * pochhammer((4 + w2p) * _QUARTER, r)
        * pochhammer(1 + alpha, r)
        * pochhammer(Fraction(3, 4) - alpha, r)
    )
    return num / den


def test_ff3_matches_hand_built_quotient():
    rng = Random(33)
    checked = 0
    for p in primes_in(5, 101):
        if p % 4 != 1:
            continue
        alphas = [F(a) for a in range(p // 4 + 1)]
        while len(alphas) < p // 4 + 4:  # a few admissible non-integers
            alpha = F(rng.randint(-30, 30), rng.randint(2, 9))
            if alpha.denominator % p and reduce_mod(alpha, p, 1).value <= p // 4:
                alphas.append(alpha)
        for alpha in alphas:
            try:
                r = verify_ff3(p, alpha)
            except HypothesisViolated:
                continue
            expected = cyclo_reduce(hand_built_quotient(p, alpha), p, 3)
            assert r.lhs == str(expected), (p, alpha)
            assert r.holds, (p, alpha)
            checked += 1
    assert checked > 120


def exact_triple_loop(p, u, v, kmax):
    """ff-3.2's former loop: the exact triple product, reduced at every k."""
    factors = tuple(u + (OMEGA**j) * (v * p) for j in range(3))
    triple = CycloElem(1, 0)
    plain = Fraction(1)
    lhs_k = cyclo_reduce(triple, p, 3)
    rhs_k = cyclo_reduce(CycloElem(plain**3, 0), p, 3)
    ok = lhs_k == rhs_k
    for k in range(1, kmax + 1):
        j = k - 1
        for f in factors:
            triple = triple * (f + j)
        plain = plain * (u + j)
        lhs_k = cyclo_reduce(triple, p, 3)
        rhs_k = cyclo_reduce(CycloElem(plain**3, 0), p, 3)
        ok &= lhs_k == rhs_k
    return ok, str(lhs_k), str(rhs_k)


def test_ff2_matches_exact_triple_loop():
    rng = Random(44)

    def draw(p):
        den = rng.randint(1, 12)
        while den % p == 0:
            den = rng.randint(1, 12)
        return F(rng.randint(-12, 12), den)

    for p in (5, 7, 13, 31):
        pairs = [(draw(p), draw(p)) for _ in range(8)]
        pairs += [(draw(p), F(0)), (F(0), draw(p)), (F(0), F(0))]
        pairs += [(p * draw(p), draw(p)), (p**2 * draw(p), draw(p))]
        pairs += [(F(-p, 2), draw(p)), (F(p**3, 7 if p != 7 else 5), F(0))]
        for u, v in pairs:
            for kmax in sorted({0, 1, (p - 1) // 2}):
                r = verify_ff2(p, u, v, kmax)
                assert (r.holds, r.lhs, r.rhs) == exact_triple_loop(p, u, v, kmax), (
                    p, u, v, kmax
                )


def test_gamma_laws_checker():
    r = verify_gamma_laws(13, samples=60, seed=5)
    assert r.holds
    assert r.params["samples"] == "60"


def test_oracle_counter_moves():
    before = congruences.oracle_comparisons
    verify_zudilin(5)
    verify_main(5, 0)
    assert congruences.oracle_comparisons == before + 2


def test_oracle_mismatch_is_raised(monkeypatch):
    """A broken fast path must abort loudly, not mark the report failed."""

    def wrong_pfq_mod(spec, p, k):
        return reduce_mod(pfq_exact(spec), p, k) + 1

    monkeypatch.setattr(congruences, "pfq_mod", wrong_pfq_mod)
    with pytest.raises(OracleMismatch):
        verify_zudilin(5)


def test_oracle_mismatch_escapes_sweep(monkeypatch):
    def wrong_pfq_mod(spec, p, k):
        return reduce_mod(pfq_exact(spec), p, k) + 1

    monkeypatch.setattr(congruences, "pfq_mod", wrong_pfq_mod)
    with pytest.raises(OracleMismatch):
        sweep(SweepConfig(ids=("zudilin-1.2",), primes=(5,)))


class TestSweep:
    def test_deterministic_and_ordered(self):
        cfg = SweepConfig(ids=("main-1.4", "kilbourn-1.1"), primes=(7, 5), seed=3)
        a = sweep(cfg)
        b = sweep(cfg)
        assert strip(a) == strip(b)
        # catalog order first, then prime order, regardless of input order
        assert [(r.id, r.p) for r in a[:2]] == [("kilbourn-1.1", 5), ("kilbourn-1.1", 7)]
        assert a[2].id == "main-1.4" and a[2].p == 5

    def test_alpha_all_counts(self):
        reports = sweep(SweepConfig(ids=("main-1.4",), primes=(5, 7, 11, 13)))
        assert len(reports) == 11  # floor(p/4)+1 summed: 2+2+3+4
        assert all(r.holds for r in reports)

    def test_alpha_list_skips_inadmissible(self):
        reports = sweep(
            SweepConfig(ids=("main-1.4",), primes=(5, 13), alphas=(F(3), F(1, 7)))
        )
        assert [(r.p, r.params["alpha"]) for r in reports] == [(13, "3"), (13, "1/7")]

    def test_domain_filtering(self):
        reports = sweep(SweepConfig(ids=("long-ramakrishna-p6", "ff-3.3"), primes=(7, 11, 13, 29)))
        pairs = [(r.id, r.p) for r in reports]
        assert ("long-ramakrishna-p6", 29) not in pairs
        assert all(p % 4 == 1 for i, p in pairs if i == "ff-3.3")
        assert all(r.holds for r in reports)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            sweep(SweepConfig(ids=("no-such-id",), primes=(5,)))

    def test_even_prime_rejected(self):
        with pytest.raises(ValueError):
            sweep(SweepConfig(ids=("zudilin-1.2",), primes=(2, 5)))

    def test_parallel_matches_serial(self):
        base = dict(ids=("kilbourn-1.1", "gamma-laws", "ff-3.2"), primes=(5, 7), pairs=4, samples=20)
        serial = sweep(SweepConfig(**base, jobs=1))
        parallel = sweep(SweepConfig(**base, jobs=3))
        assert strip(serial) == strip(parallel)

    def test_jobs_clamped_to_cells_and_cpus(self, monkeypatch):
        pools = []

        class FakePool:
            def __init__(self, max_workers, initializer=None):
                assert initializer is congruences._unlimited_int_str
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(congruences.os, "cpu_count", lambda: 4)
        three = dict(ids=("zudilin-1.2",), primes=(5, 7, 11))
        serial = sweep(SweepConfig(**three))
        assert pools == []
        assert strip(sweep(SweepConfig(**three, jobs=1000))) == strip(serial)
        sweep(SweepConfig(ids=("zudilin-1.2",), primes=primes_in(5, 31), jobs=1000))
        sweep(SweepConfig(**three, jobs=2))
        sweep(SweepConfig(ids=("zudilin-1.2",), primes=(5,), jobs=8))
        assert pools == [3, 4, 2]  # one cell ran serially
        monkeypatch.setattr(congruences.os, "cpu_count", lambda: None)
        sweep(SweepConfig(**three, jobs=8))
        assert pools == [3, 4, 2]

    def test_ff2_cells_are_seeded(self):
        one = sweep(SweepConfig(ids=("ff-3.2",), primes=(5,), pairs=6, seed=9))
        two = sweep(SweepConfig(ids=("ff-3.2",), primes=(5,), pairs=6, seed=9))
        other = sweep(SweepConfig(ids=("ff-3.2",), primes=(5,), pairs=6, seed=10))
        assert strip(one) == strip(two)
        assert strip(one) != strip(other)
        assert len(one) == 6

    def test_checker_error_becomes_failed_report(self, monkeypatch):
        def always_raises(p):
            raise PrecisionExhausted("forced for the test")

        monkeypatch.setattr(congruences, "verify_zudilin", always_raises)
        reports = sweep(SweepConfig(ids=("zudilin-1.2",), primes=(5,)))
        assert len(reports) == 1
        r = reports[0]
        assert not r.holds
        assert r.params["error"] == "PrecisionExhausted"
        assert r.lhs == "error"

    def test_gs_cell_ignores_primes(self):
        reports = sweep(SweepConfig(ids=("gs-2.6",), primes=(5, 7), samples=10))
        assert len(reports) == 1
        assert reports[0].p == 0
