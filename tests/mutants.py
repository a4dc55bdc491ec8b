#!/usr/bin/env python3
"""Mutation smoke: each planted fault must make its differential tests fail.

    python3 tests/mutants.py

Copies src/, tests/ and pyproject.toml into a temporary directory (the
copy's pyproject puts its own src/ first on the path), checks that the
unmutated copy passes every named test, then applies one mutant at a time
(an exact text replacement in one source file) and runs only that mutant's
tests.  Exits 1 if the unmutated copy fails, if a mutant's old text is not
found exactly once, or if a mutant survives.  Not collected by pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_ARITH = "src/supercon/arith.py"
_GAMMA = "src/supercon/gamma.py"
_HYPER = "src/supercon/hyper.py"
_CONG = "src/supercon/congruences.py"
_DIGITS = ["tests/test_gamma.py::test_digit_tables_match_block_walk"]
_LAWS = ["tests/test_congruences.py::test_gamma_laws_catch_a_planted_value"]
_EXACT = [
    "tests/test_hyper.py::test_pfq_exact_matches_fraction_route_on_catalog_specs",
    "tests/test_hyper.py::test_pfq_exact_matches_fraction_route_on_q_omega_points",
]
_MOD = [  # the quick one first: pytest -x stops at the first failure
    "tests/test_hyper.py::test_pfq_mod_zero_z_still_meets_a_later_pole",
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
     "den0 = z_den * prod(", "den0 = prod(", _EXACT),
    ("pfq_exact: lower entries' denominators dropped", _HYPER,
     "num0 = z_num * prod(s for _, s in lower)", "num0 = z_num", _EXACT),
    ("pfq_exact: lower factors at k + 1", _HYPER,
     "dens = [r + k * s for r, s in lower]",
     "dens = [r + (k + 1) * s for r, s in lower]", _EXACT),
    ("pfq_exact: k! factor off by one", _HYPER,
     "start=den0 * (k + 1))", "start=den0 * (k + 2))", _EXACT),
    ("pfq_mod: z's denominator dropped", _HYPER,
     "drop = spec.z.denominator * prod(", "drop = prod(", _MOD),
    ("pfq_mod: lower entries' denominators dropped", _HYPER,
     "lift = spec.z.numerator * prod(q for _, q in lows)",
     "lift = spec.z.numerator", _MOD),
    ("pfq_mod: k! factor off by one", _HYPER,
     "start=drop * (j + 1))", "start=drop * (j + 2))", _MOD),
    ("pfq_mod: a zero ratio ends the series", _HYPER,
     "        total = total + term\n    return",
     "        total = total + term\n"
     "        if not ratio:\n            break\n    return",
     _MOD),
    ("gamma: an int argument read without reduction", _GAMMA,
     "return x % self._pk", "return x",
     ["tests/test_gamma.py::test_int_argument_is_its_own_representative"]),
    ("long-ramakrishna: the 5 (mod 6) unit read as 10/9", _CONG,
     "Fraction(10, 27)", "Fraction(10, 9)",
     ["tests/test_congruences.py::test_long_ramakrishna_both_classes"]),
    ("ff-3.2: a wrong factor in the triple product", _CONG,
     "lhs * f0 * f1 * f2", "lhs * f0 * f1 * f1",
     ["tests/test_congruences.py::test_ff2_matches_exact_triple_loop"]),
    ("ff-3.3: alpha shifted by one", _CONG,
     "gs_rhs(ff_point(p, alpha))", "gs_rhs(ff_point(p, alpha + 1))",
     ["tests/test_congruences.py::test_ff3_matches_hand_built_quotient"]),
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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="supercon-mutants-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src")
        shutil.copytree(ROOT / "tests", work / "tests")
        shutil.copy(ROOT / "pyproject.toml", work)
        every = sorted({n for *_, nodes in MUTANTS for n in nodes})
        if not _pytest(work, every):
            print("unmutated copy fails its tests", file=sys.stderr)
            return 1
        bad = 0
        for name, rel, old, new, nodes in MUTANTS:
            path = work / rel
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"MISSING  {name}: old text found {text.count(old)} times")
                bad += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                survived = _pytest(work, nodes)
            finally:
                path.write_text(text, encoding="utf-8")
            print(f"{'SURVIVED' if survived else 'killed  '} {name}")
            bad += survived
        print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
