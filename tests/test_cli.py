"""Command-line surface: outputs, formats, exit codes."""

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import supercon
import supercon.cli as cli
import supercon.congruences as congruences
from supercon.arith import PrimePowerResidue
from supercon.cli import main
from supercon.congruences import CongruenceReport, SweepConfig, sweep
from supercon.errors import PrecisionExhausted


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MASK = re.compile(r'("elapsed_ms": )[0-9.]+|(\([0-9.]+ms\))|(,[0-9.]+)$', re.M)


def mask_times(text: str) -> str:
    return MASK.sub(lambda m: m.group(1) + "0" if m.group(1) else "T", text)


def test_gamma_example(capsys):
    code, out, _ = run(["gamma", "--p", "5", "--k", "3", "--x", "1"], capsys)
    assert code == 0
    assert out == "124 (m=1)\n"


def test_gamma_half(capsys):
    code, out, _ = run(["gamma", "--p", "5", "--k", "1", "--x", "1/2"], capsys)
    assert code == 0
    assert out.startswith("3 ")


def test_gamma_bad_argument(capsys):
    code, _, err = run(["gamma", "--p", "5", "--k", "3", "--x", "1/5"], capsys)
    assert code == 2
    assert "NonUnitDenominator" in err


def test_gamma_high_precision(capsys):
    code, out, _ = run(["gamma", "--p", "97", "--k", "6", "--x", "1/3"], capsys)
    assert code == 0
    assert out.endswith(" (m=555314669953)\n")


def test_eta_example(capsys):
    code, out, _ = run(["eta", "--limit", "3"], capsys)
    assert code == 0
    assert out == "1, 0, -4\n"


def test_eta_single_coefficient(capsys):
    code, out, _ = run(["eta", "--limit", "4", "--coeff", "2"], capsys)
    assert (code, out) == (0, "0\n")
    code, out, _ = run(["eta", "--limit", "1"], capsys)
    assert (code, out) == (0, "1\n")


def test_eta_coeff_past_limit(capsys):
    code, _, err = run(["eta", "--limit", "4", "--coeff", "9"], capsys)
    assert code == 2
    assert "LimitExceeded" in err


def test_eta_guard_counts_sparse_updates(capsys):
    # 3.5e6 updates at limit 20000, under the default 1e8 (limit^2 is 4e8);
    # 19997 is prime, so |a(p)| <= 2 p^(3/2)
    code, out, _ = run(["eta", "--limit", "20000", "--coeff", "19997"], capsys)
    assert code == 0
    assert int(out) ** 2 <= 4 * 19997**3


def test_eta_guard_refuses(capsys):
    start = time.perf_counter()
    code, _, err = run(["eta", "--limit", "10000000"], capsys)
    assert code == 2
    assert "exceeds --max-work" in err
    assert time.perf_counter() - start < 1
    code, _, err = run(["eta", "--limit", "100", "--max-work", "1000"], capsys)
    assert code == 2
    assert "exceeds --max-work 1000" in err


def test_pfq_exact_and_residue(capsys):
    code, out, _ = run(
        ["pfq", "--upper", "1/2,1/2,1/2,5/4", "--lower", "1,1,1/4",
         "--z", "-1", "--n", "2", "--p", "5", "--k", "3"],
        capsys,
    )
    assert code == 0
    assert out == "435/512\n5 (mod 125)\n"


def test_pfq_exact_only(capsys):
    code, out, _ = run(["pfq", "--upper", "1/2", "--lower", "1", "--n", "0"], capsys)
    assert (code, out) == (0, "1\n")


def test_pfq_failure_leaves_stdout_empty(capsys):
    code, out, err = run(
        ["pfq", "--upper", "1/5", "--lower", "1", "--n", "10", "--p", "5", "--k", "3"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert "PrecisionExhausted" in err


@pytest.mark.parametrize(
    "argv",
    [
        # 205835/374 is 15 mod 25, but the sum cancels through its last digit
        ["--upper", "1", "--lower", "2/3", "--z", "6", "--n", "6", "--p", "5", "--k", "2"],
        # 13/21 has a 3 in its denominator
        ["--upper=-2", "--lower=-9/2", "--z=-1", "--n", "12", "--p", "3", "--k", "1"],
    ],
)
def test_pfq_refuses_a_residue_it_cannot_certify(argv, capsys):
    code, out, err = run(["pfq", *argv], capsys)
    assert (code, out) == (2, "")
    assert "PrecisionExhausted" in err


def test_pfq_residue_is_checked_against_the_exact_route(monkeypatch, capsys):
    def wrong_pfq_mod(spec, p, k):
        exact = congruences.reduce_mod(congruences.pfq_exact(spec), p, k)
        return PrimePowerResidue(p, k, exact.value + 1)

    monkeypatch.setattr(congruences, "pfq_mod", wrong_pfq_mod)
    argv = ["pfq", "--upper", "1/2", "--lower", "1", "--n", "3", "--p", "5", "--k", "2"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert "internal error" in err


def test_verify_oracle_mismatch_exits_three(monkeypatch, capsys):
    def wrong_pfq_mod(spec, p, k):
        exact = congruences.reduce_mod(congruences.pfq_exact(spec), p, k)
        return PrimePowerResidue(p, k, exact.value + 1)

    monkeypatch.setattr(congruences, "pfq_mod", wrong_pfq_mod)
    argv = ["verify", "--id", "zudilin-1.2", "--primes", "5,7", "--jobs", "1"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("internal error: modular evaluator gave")


@pytest.fixture
def default_int_str_cap():
    """CPython's default 4300-digit int-to-str cap during the test."""
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreter has no cap
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(old)


def test_pfq_prints_past_4300_digits(default_int_str_cap, capsys):
    argv = ["pfq", "--upper", "1,1", "--lower", "1", "--z", "1/10", "--n", "4400"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert len(out) > 4400


# ff-3.1's exact value at p = 3301 runs past 4300 digits; zudilin-1.2 is a
# second cell, so --jobs 2 really starts the pool.
BIG_CELLS = ["--id", "ff-3.1,zudilin-1.2", "--primes", "3301", "--alpha", "1"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_prints_past_4300_digits(jobs, default_int_str_cap, capsys):
    argv = ["verify", *BIG_CELLS, "--format", "json", "--jobs", jobs]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["id"], r["holds"]) for r in rows] == [
        ("zudilin-1.2", True), ("ff-3.1", True)
    ]
    assert len(rows[1]["lhs"]) > 4300


def test_pool_workers_print_past_4300_digits(default_int_str_cap):
    # called without cli.main, so only the pool initializer lifts the cap
    ids = ("ff-3.1", "zudilin-1.2")
    reports = sweep(SweepConfig(ids=ids, primes=(3301,), alphas=(1,), jobs=2))
    assert [(r.id, r.holds, r.params) for r in reports] == [
        ("zudilin-1.2", True, {}), ("ff-3.1", True, {"alpha": "1"})
    ]


def test_pfq_needs_both_p_and_k(capsys):
    code, _, err = run(["pfq", "--upper", "1/2", "--lower", "1", "--n", "1", "--p", "5"], capsys)
    assert code == 2
    assert "--p and --k" in err


def test_pfq_guard_counts_terms(capsys):
    argv = ["pfq", "--upper", "1/2", "--lower", "1", "--n", "11"]
    code, out, err = run(argv + ["--max-work", "10"], capsys)
    assert (code, out) == (2, "")
    assert "11 terms exceeds --max-work 10" in err
    code, _, _ = run(argv + ["--max-work", "11"], capsys)
    assert code == 0


def test_identity_example(capsys):
    code, out, _ = run(
        ["identity", "--a", "1/4", "--b", "1/2", "--d", "1/4", "--n", "2"], capsys
    )
    assert code == 0
    assert out == "5/4 = 5/4, equal\n"


def test_identity_odd_n(capsys):
    code, out, _ = run(
        ["identity", "--a", "1/4", "--b", "1/2", "--d", "1/4", "--n", "3"], capsys
    )
    assert code == 0
    assert out == "0 = 0, equal\n"


def test_identity_guard_counts_terms(capsys):
    argv = ["identity", "--a", "1/4", "--b", "1/2", "--d", "1/4", "--n", "11"]
    code, out, err = run(argv + ["--max-work", "10"], capsys)
    assert (code, out) == (2, "")
    assert "11 terms exceeds --max-work 10" in err
    code, _, _ = run(argv + ["--max-work", "11"], capsys)
    assert code == 0


@pytest.mark.parametrize(
    "command, refuses",
    [("pfq", "an --n above W"), ("identity", "an --n above W"),
     ("eta", "more than W coefficient updates")],
)
def test_max_work_help_names_its_count(command, refuses, capsys):
    assert main([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert refuses in out
    assert "ring multiplications" not in out


def test_identity_pole_is_usage_error(capsys):
    # negative rationals need the = form, or argparse reads them as flags
    code, _, err = run(
        ["identity", "--a", "1/4", "--b=-1/2", "--d", "1/7", "--n", "4"], capsys
    )
    assert code == 2
    assert "PoleInRange" in err


def test_verify_json_records(capsys):
    code, out, _ = run(
        ["verify", "--id", "zudilin-1.2", "--primes", "5..11", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["p"] for r in rows] == [5, 7, 11]
    for r in rows:
        assert list(r) == ["id", "p", "params", "modulus", "lhs", "rhs", "holds", "elapsed_ms"]
        assert r["holds"] is True


def test_verify_csv_header_and_rows(capsys):
    code, out, _ = run(
        ["verify", "--id", "kilbourn-1.1", "--primes", "5,7", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "p", "params", "modulus", "lhs", "rhs", "holds", "elapsed_ms"]
    assert len(rows) == 3
    assert rows[1][0] == "kilbourn-1.1" and rows[1][6] == "true"


def test_verify_text_summary(capsys):
    code, out, _ = run(
        ["verify", "--id", "main-1.4", "--primes", "5,7", "--alpha", "0"], capsys
    )
    assert code == 0
    assert "mod 5^3" in out
    assert out.rstrip().endswith("2/2 hold")


def test_verify_writes_out_file(tmp_path, capsys):
    target = tmp_path / "reports.json"
    code, out, _ = run(
        ["verify", "--id", "gs-2.6", "--samples", "10", "--format", "json",
         "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    rows = [json.loads(line) for line in target.read_text().splitlines()]
    assert rows[0]["id"] == "gs-2.6" and rows[0]["holds"] is True


@pytest.mark.parametrize(
    "where, error",
    [("missing/dir/x", "FileNotFoundError"), ("", "IsADirectoryError")],
)
def test_verify_unwritable_out_is_a_usage_error(where, error, tmp_path, capsys):
    """Exit 1 means a congruence failed; a bad --out path is exit 2."""
    argv = ["verify", "--id", "gs-2.6", "--samples", "10"]
    argv += ["--out", str(tmp_path / where)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error}: ")
    assert "Traceback" not in err


def test_verify_deterministic_bytes(capsys):
    argv = ["verify", "--id", "ff-3.2", "--primes", "5,7", "--pairs", "5",
            "--seed", "11", "--format", "json"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert mask_times(out1) == mask_times(out2)
    _, out3, _ = run(argv + ["--jobs", "2"], capsys)
    assert mask_times(out1) == mask_times(out3)


def test_verify_repeated_alpha_reports_once(capsys):
    argv = ["verify", "--id", "main-1.4,ff-3.1", "--primes", "13"]
    code, out, _ = run(argv + ["--alpha", "1,1,2/2"], capsys)
    assert code == 0
    assert out.endswith("2/2 hold\n")
    _, once, _ = run(argv + ["--alpha", "1"], capsys)
    assert mask_times(out) == mask_times(once)
    _, both, _ = run(argv + ["--alpha", "2,0,2"], capsys)
    assert [line.split()[3] for line in both.splitlines()[:-1]] == [
        "[alpha=2]", "[alpha=0]", "[alpha=2]", "[alpha=0]"
    ]


def test_verify_rejects_composite_endpoint(capsys):
    code, _, err = run(["verify", "--id", "main-1.4", "--primes", "4..6"], capsys)
    assert code == 2
    assert "prime" in err


def test_verify_rejects_unknown_id(capsys):
    code, _, err = run(["verify", "--id", "main-9.9", "--primes", "5..7"], capsys)
    assert code == 2
    assert "unknown congruence" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--id", "ff-3.3", "--primes", "7,11"],
        ["--id", "main-1.4", "--primes", "5..13", "--alpha", "1/2"],
    ],
)
def test_verify_empty_run_exits_two(argv, capsys):
    code, out, err = run(["verify", *argv], capsys)
    assert (code, out) == (2, "")
    assert "nothing checked" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--samples", "2"], "gamma-laws needs samples >= 3, got 2"),
        (["--samples", "0"], "gs-2.6 needs samples >= 1, got 0"),
        (["--primes", "5,7", "--pairs", "0"], "ff-3.2 needs pairs >= 1, got 0"),
        (["--primes", "5,7", "--pairs", "-1"], "ff-3.2 needs pairs >= 1, got -1"),
    ],
)
def test_verify_counts_below_minimum_exit_two(argv, message, capsys):
    code, out, err = run(["verify", *argv], capsys)
    assert (code, out) == (2, "")
    assert message in err


def test_verify_counts_bind_only_selected_ids(capsys):
    code, out, _ = run(["verify", "--id", "gs-2.6", "--samples", "1"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "1/1 hold")
    argv = ["verify", "--id", "kilbourn-1.1", "--primes", "5,7", "--pairs", "0"]
    code, out, _ = run(argv, capsys)
    assert (code, out.splitlines()[-1]) == (0, "2/2 hold")


def test_verify_rejects_composite_in_prime_list(capsys):
    code, out, err = run(["verify", "--id", "zudilin-1.2", "--primes", "5,9"], capsys)
    assert (code, out) == (2, "")
    assert "expected an odd prime, got 9" in err


def test_verify_rejects_jobs_below_one(capsys):
    code, out, err = run(["verify", "--id", "zudilin-1.2", "--jobs", "0"], capsys)
    assert (code, out) == (2, "")
    assert "jobs" in err


def test_verify_exit_one_on_violation(monkeypatch, capsys):
    fake = [CongruenceReport("zudilin-1.2", 5, {}, 3, "1", "2", False, 0.1)]
    monkeypatch.setattr(cli, "sweep", lambda cfg: fake)
    code, out, _ = run(["verify", "--id", "zudilin-1.2", "--primes", "5,5"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_verify_checker_error_exits_three(monkeypatch, capsys):
    real = congruences.verify_zudilin

    def flaky(p):
        if p == 5:
            raise PrecisionExhausted("forced for the test")
        return real(p)

    argv = ["verify", "--id", "zudilin-1.2", "--primes", "5,7"]
    monkeypatch.setattr(congruences, "verify_zudilin", flaky)
    code, out, _ = run(argv, capsys)
    assert code == 3
    lines = out.splitlines()
    assert lines[0].startswith(
        "FAIL zudilin-1.2 p=5 [error=PrecisionExhausted] exact: lhs=error"
    )
    assert lines[-1] == "1/2 hold"

    violated = CongruenceReport("zudilin-1.2", 7, {}, 3, "1", "2", False, 0.1)
    monkeypatch.setattr(
        congruences, "verify_zudilin", lambda p: violated if p == 7 else flaky(p)
    )
    code, _, _ = run(argv, capsys)
    assert code == 1  # a genuine violation outranks the error row


def test_verify_unexpected_exception_is_an_error_row(monkeypatch, capsys):
    real = congruences.verify_zudilin

    def broken(p):
        if p == 5:
            raise ZeroDivisionError("forced for the test")
        return real(p)

    monkeypatch.setattr(congruences, "verify_zudilin", broken)
    argv = ["verify", "--id", "zudilin-1.2", "--primes", "5,7", "--format", "json"]
    code, out, _ = run(argv, capsys)
    assert code == 3
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["params"] == {"error": "ZeroDivisionError"}
    assert (first["lhs"], first["rhs"], first["holds"]) == (
        "error", "forced for the test", False
    )
    assert (second["p"], second["holds"]) == (7, True)


def quick_start_transcripts():
    """(argv, expected stdout) for each `$ supercon ...` in README's Quick start."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Quick start\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```\n")[1]
    out = []
    for transcript in block.strip().split("\n\n"):
        command, _, expected = transcript.partition("\n")
        assert command.startswith("$ supercon "), command
        out.append((shlex.split(command)[2:], expected + "\n"))
    return out


def test_readme_quick_start_is_true(capsys):
    transcripts = quick_start_transcripts()
    assert len(transcripts) == 5
    for argv, expected in transcripts:
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        assert mask_times(out) == mask_times(expected), argv


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["verify", "--format", "yaml"]) == 2
    assert main(["gamma", "--p", "5"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0
    capsys.readouterr()


def test_module_entry_point():
    # The child imports supercon from wherever this process did.
    src = str(Path(supercon.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "supercon", "eta", "--limit", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "1, 0, -4\n"
