#!/usr/bin/env python3
"""Mutation smoke: each planted fault must make its differential tests fail.

    python3 tests/mutants.py

Copies src/, tests/ and pyproject.toml into one temporary directory per
CPU, at most one per mutant (each copy's pyproject puts its own src/ first
on the path).  The copies first run every named test unmutated, then take
one mutant each as they come free: an exact text replacement in one source
file, a fresh `python -m pytest` on only that mutant's tests, and the file
restored.  Results print in MUTANTS order and count only if the unmutated
runs pass.  Exits 1 if the unmutated copy fails, if a mutant's old text is
not found exactly once, or if a mutant survives.  Not collected by pytest.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_ARITH = "src/supercon/arith.py"
_GAMMA = "src/supercon/gamma.py"
_HYPER = "src/supercon/hyper.py"
_CONG = "src/supercon/congruences.py"
_CLI = "src/supercon/cli.py"
_DIGITS = ["tests/test_gamma.py::test_digit_tables_match_block_walk"]
_GS = ["tests/test_hyper.py::test_gs_rhs_matches_cyclo_elem_route"]
_LAWS = ["tests/test_congruences.py::test_gamma_laws_catch_a_planted_value"]
_EXACT = [
    "tests/test_hyper.py::test_pfq_exact_matches_fraction_route_on_catalog_specs",
    "tests/test_hyper.py::test_pfq_exact_matches_fraction_route_on_q_omega_points",
]
# ff_point's series sums and shared denominators have c1 = 0, so the pair
# route's c1 bookkeeping needs the off-axis specs of this test
_PAIRS = ["tests/test_hyper.py::test_pfq_exact_matches_cyclo_elem_route"]
_FF2 = ["tests/test_congruences.py::test_ff2_matches_cyclo_elem_triple_loop"]
_RUNS = ["tests/test_hyper.py::test_pfq_mod_matches_both_former_routes_at_p_events"]
_MOD = [  # the quick ones first: pytest -x stops at the first failure
    "tests/test_hyper.py::test_pfq_mod_zero_z_still_meets_a_later_pole",
    *_RUNS,
    "tests/test_hyper.py::test_pfq_mod_matches_factor_route_on_catalog_specs",
]

#: (name, file, old text, new text, test node ids that must fail)
MUTANTS = (
    ("gamma: u = 0 not skipped at level 0", _GAMMA,
     "            elif u:\n", "            else:\n", _DIGITS),
    ("gamma: top-level constants read at u + 1", _GAMMA,
     "_eval(block, u, pk) if block", "_eval(block, u + 1, pk) if block", _DIGITS),
    ("gamma: sign taken from d_0, not m", _GAMMA,
     "-acc % pk if m % 2 else acc", "-acc % pk if m % p % 2 else acc", _DIGITS),
    ("gamma: digits read from m // p", _GAMMA,
     "acc, q = 1, m\n", "acc, q = 1, m // p\n", _DIGITS),
    ("capped route: a cancelled sum becomes the exact zero", _ARITH,
     "return PadicCapped(p, n, 0, 0)", "return PadicCapped(p, INFINITY, 0, 0)",
     ["tests/test_hyper.py::test_pfq_mod_never_certifies_a_wrong_residue"]),
    ("gamma-laws: reflection parity flipped", _CONG,
     "sign = -1 if (x % p or p) % 2 else 1", "sign = 1 if (x % p or p) % 2 else -1",
     _LAWS),
    ("gamma-laws: shift law's sign dropped", _CONG,
     "(g(x + 1) + (x if", "(g(x + 1) - (x if", _LAWS),
    ("gamma-laws: odd-n sign skipped", _CONG,
     "direct == (-1) ** n * g(x + n)", "direct == g(x + n)", _LAWS),
    ("pfq_exact: z's denominator dropped", _HYPER,
     "den0 = split(z_den * prod(", "den0 = split(prod(", _EXACT),
    ("pfq_exact: lower entries' denominators dropped", _HYPER,
     "num0 = mul(z_num, split(prod(s for _, s in lower))[0])", "num0 = z_num",
     _EXACT),
    ("pfq_exact: lower factors at k + 1", _HYPER,
     "lower = [split(b) for b in (*spec.lower, 1)]",
     "lower = [split(b + 1) for b in spec.lower] + [split(1)]", _EXACT),
    ("pfq_exact: k! factor off by one", _HYPER,
     "for b in (*spec.lower, 1)]", "for b in (*spec.lower, 2)]", _EXACT),
    ("pfq_exact: the pair sum drops c1", _HYPER,
     "return x[0] + y[0], x[1] + y[1]", "return x[0] + y[0], x[1]", _PAIRS),
    ("pfq_exact: the final division reads only shared's c0", _HYPER,
     "_zw_div(*total, *shared)", "_zw_div(*total, shared[0], 0)", _PAIRS),
    ("pfq_mod: z's denominator dropped", _HYPER,
     "drop = spec.z.denominator * prod(", "drop = prod(", _MOD),
    ("pfq_mod: lower entries' denominators dropped", _HYPER,
     "lift = spec.z.numerator * prod(q for _, q in lows)",
     "lift = spec.z.numerator", _MOD),
    ("pfq_mod: k! factor off by one", _HYPER,
     "start=drop * (j + 1))", "start=drop * (j + 2))", _MOD),
    ("pfq_mod: a zero ratio ends the series", _HYPER,
     "        rn = rd = acc = 1\n    return",
     "        rn = rd = acc = 1\n        if not num:\n            break\n    return",
     _MOD),
    ("pfq_mod: a run sum keeps k digits after cancellation", _HYPER,
     "PadicCapped(p, w, r, k - w)", "PadicCapped(p, w, r, k)", _RUNS),
    ("pfq_mod: the p-event test reads only the numerator", _HYPER,
     "if num % p and den % p:", "if num % p:", _RUNS),
    ("pfq_mod: the event ratio drops the run's rn / rd", _HYPER,
     "from_ratio(rn * num, rd * den, p, k)", "from_ratio(num, den, p, k)", _RUNS),
    ("gamma: an int argument read without reduction", _GAMMA,
     "return x % self._pk", "return x",
     ["tests/test_gamma.py::test_int_argument_is_its_own_representative"]),
    ("long-ramakrishna: the 5 (mod 6) unit read as 10/9", _CONG,
     "Fraction(10, 27)", "Fraction(10, 9)",
     ["tests/test_congruences.py::test_long_ramakrishna_both_classes"]),
    ("ff-3.2: a wrong factor in the triple product", _CONG,
     "(s, y), (s - y, -y))", "(s, y), (s, y))",
     ["tests/test_congruences.py::test_ff2_matches_exact_triple_loop"]),
    ("ff-3.2: the w^2 factor's -y read as +y", _CONG,
     "(s - y, -y)", "(s - y, y)", _FF2),
    ("ff-3.2: b not reduced mod p^3", _CONG,
     "a, b = a % m, b % m", "a, b = a % m, b", _FF2),
    ("ff-3.2: v's p-integrality unchecked", _CONG,
     '(("u", u), ("v", v))', '(("u", u),)',
     ["tests/test_congruences.py::test_ff2_inputs"]),
    ("ff-3.3: alpha shifted by one", _CONG,
     "gs_rhs(ff_point(p, alpha))", "gs_rhs(ff_point(p, alpha + 1))",
     ["tests/test_congruences.py::test_ff3_matches_hand_built_quotient"]),
    ("gamma product rhs: the mod p^3 reduction dropped", _CONG,
     "return sign * p * unit % p**3", "return sign * p * unit",
     ["tests/test_congruences.py::test_mccarthy_osburn_rhs_needs_gamma_mod_p2_only"]),
    ("long-ramakrishna: the mod p^6 reduction dropped", _CONG,
     "rhs = -lift * unit % p**6", "rhs = -lift * unit",
     ["tests/test_congruences.py::test_long_ramakrishna_both_classes"]),
    ("capped route: the embed leaves p in den", _ARITH,
     "        while den % p == 0:\n            den //= p\n            v -= 1\n", "",
     ["tests/test_arith.py::TestPadicCapped::"
      "test_from_rational_matches_integer_embed_of_any_multiple"]),
    ("capped route: residue not reduced mod p^k", _ARITH,
     "self.p**self.valuation * self.unit % self.p**k",
     "self.p**self.valuation * self.unit",
     ["tests/test_arith.py::TestPadicCapped::test_from_rational_splits_valuation"]),
    # exact_triple_loop multiplies through the same product rule, so only
    # ff-3.2's plain-int right side (holds) can tell this one apart
    ("Z[w] product: w^2 read as 1 - w", _ARITH,
     "return a * c - bd, a * d + b * c - bd",
     "return a * c + bd, a * d + b * c - bd",
     ["tests/test_congruences.py::test_ff2_matches_exact_triple_loop"]),
    ("Z[w] inverse by floor division", _ARITH,
     "Fraction(e, n) for e", "e // n for e",
     ["tests/test_arith.py::TestCycloElem::"
      "test_int_coordinates_stay_int_and_match_fraction_arithmetic"]),
    ("exact split: a Q(w) entry left unscaled", _HYPER,
     "return CycloElem(int(x.c0 * s), int(x.c1 * s)), s", "return x, s",
     ["tests/test_hyper.py::test_pfq_exact_matches_fraction_route_on_q_omega_points"]),
    ("pochhammer: divided by s^(n - 1)", _HYPER,
     "start=split(1)[0]), s**n", "start=split(1)[0]), s**(n - 1)",
     ["tests/test_hyper.py::test_pochhammer_matches_fraction_accumulator"]),
    ("Z[w] operand: a rational read as (0, x)", _ARITH,
     "(x, 0) if", "(0, x) if",
     ["tests/test_arith.py::TestCycloElem::test_mixed_scalar_arithmetic"]),
    ("gs_rhs: the lower Pochhammers multiplied, not divided", _HYPER,
     "    num = product((t for t, _ in upper), start=split(prod(s for _, s in lower))"
     "[0])\n    den = product((t for t, _ in lower), "
     "start=split(prod(s for _, s in upper))[0])\n",
     "    num = product((t for t, _ in upper + lower), start=split(1)[0])\n"
     "    den = split(prod(s for _, s in upper + lower))[0]\n",
     _GS),
    ("gs_rhs: a Q(w) factor's column drops c1", _HYPER,
     "repeat(r[1]))", "repeat(0))", _GS),
    ("verify: reports written straight to stdout, not the temporary file",
     _CLI, 'tempfile.TemporaryFile("w+", encoding="utf-8", newline="")',
     "contextlib.nullcontext(sys.stdout)",
     ["tests/test_cli.py::test_verify_mismatch_after_a_written_report_leaves_no_output"]),
    ("verify: the text summary counts every report as held", _CLI,
     'f"{held}/{total} hold', 'f"{total}/{total} hold',
     ["tests/test_cli.py::test_verify_checker_error_exits_three"]),
    ("pole window: -n itself counted", _HYPER,
     "-n < c0 <= 0", "-n <= c0 <= 0",
     ["tests/test_hyper.py::test_integer_in_window_matches_scan"]),
)


def _pytest(work: Path, nodes: list[str]) -> bool:
    """True when every named test passes in the copy at work."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    done = subprocess.run(
        cmd + nodes, cwd=work, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


def _copy_tree(work: Path) -> Path:
    shutil.copytree(ROOT / "src", work / "src")
    shutil.copytree(ROOT / "tests", work / "tests")
    shutil.copy(ROOT / "pyproject.toml", work)
    return work


def _clean(copies: queue.Queue, nodes: list[str]) -> bool:
    """Run some of the named tests in a free, unmutated copy."""
    work = copies.get()
    try:
        return _pytest(work, nodes)
    finally:
        copies.put(work)


def _try(copies: queue.Queue, mutant) -> str:
    """Apply one mutant in a free copy, run its tests, restore the copy."""
    name, rel, old, new, nodes = mutant
    work = copies.get()
    try:
        path = work / rel
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"MISSING  {name}: old text found {text.count(old)} times"
        path.write_text(text.replace(old, new), encoding="utf-8")
        try:
            survived = _pytest(work, nodes)
        finally:
            path.write_text(text, encoding="utf-8")
        return f"{'SURVIVED' if survived else 'killed  '} {name}"
    finally:
        copies.put(work)


def main() -> int:
    workers = min(os.cpu_count() or 1, len(MUTANTS))
    every = sorted({n for *_, nodes in MUTANTS for n in nodes})
    chunks = [every[i::workers] for i in range(min(workers, len(every)))]
    with tempfile.TemporaryDirectory(prefix="supercon-mutants-") as tmp:
        copies = queue.Queue()
        for i in range(workers):
            copies.put(_copy_tree(Path(tmp) / str(i)))
        with ThreadPoolExecutor(workers) as pool:
            # The unmutated runs are queued first; mutants take each copy
            # as it comes free, and their results count only if those pass.
            clean = [pool.submit(_clean, copies, nodes) for nodes in chunks]
            tried = [pool.submit(_try, copies, mutant) for mutant in MUTANTS]
            if not all([future.result() for future in clean]):
                for future in tried:
                    future.cancel()
                print("unmutated copy fails its tests", file=sys.stderr)
                return 1
            bad = 0
            for future in tried:
                line = future.result()
                print(line, flush=True)
                bad += not line.startswith("killed")
        print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
