#!/usr/bin/env python3
"""Benchmark of `supercon verify` on three fixed catalog sweeps.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-golden

With --trace 0 each sweep runs as a child process and the run reports the
end-to-end metrics; with --trace 1 the sweep runs serially in this process
with spans around each layer and the run reports the per-layer metrics.
Either way the last line on stdout is one JSON object with the keys
correct, attempted, failed and metrics.  --write-golden records the output
digests every timed run is checked against.  bench/README.md explains the
workloads, the metrics and the limits of what is measured.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, patched, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
#: Seeds with a recorded output digest; other seeds are checked by exit
#: code, `holds` and report count only.
GOLDEN_SEEDS = range(20)

#: A child sweep is killed after this long, so a hung run still ends
#: inside the 180 s a benchmark run may take.
CHILD_TIMEOUT_S = 150
MIN_SWEEPS = 3
SETUPS_PER_SWEEP = 3
MIN_TRACE_CYCLES = 2
SETUP_ARGV = ("-c", "import supercon.cli; supercon.cli.build_parser()")


@dataclass(frozen=True)
class Workload:
    ids: str | None  # comma list for --id; None runs the whole catalog
    primes: str
    jobs: int
    covers: tuple  # spans that must record calls in every traced pass

    def verify_argv(self, seed: int, jobs: int | None = None) -> list[str]:
        argv = ["verify", "--format", "json", "--primes", self.primes]
        argv += ["--jobs", str(jobs or self.jobs), "--seed", str(seed)]
        return argv + (["--id", self.ids] if self.ids else [])


# ROADMAP's whole-catalog 101..199 sweep (~35 s, refused by --max-work) and
# its 401..499 sweeps (minutes) are too slow for 22 runs per check; these
# three scale them down, each stressing a different layer.  None passes
# --max-work and all fit the default guard.
WORKLOADS = {
    # Exact Z[w] work and short series; per-report overhead shows.
    "catalog-5-97": Workload(
        None,
        "5..97",
        1,
        ("hyper.ff1_build", "hyper.pochhammer", "hyper.pfq_mod",
         "hyper.pfq_exact", "gamma.batch", "gamma.single"),
    ),
    # The O(p^k) Gamma_p unit sweep is ~95% of the time.
    "gamma-hi": Workload(
        "gamma-laws,mccarthy-osburn-1.3,long-ramakrishna-p6",
        "5,7,11,13,17,19,23,101,103,107,109,113,127,131,137,139,149,151,"
        "157,163,167,173",
        1,
        ("gamma.batch", "gamma.single"),
    ),
    # Long series and the per-cell eta rebuild, through the process pool.
    "series-eta-j2": Workload(
        "kilbourn-1.1,zudilin-1.2",
        "401..997",
        2,
        ("eta.qexp", "hyper.pfq_mod", "hyper.pfq_exact"),
    ),
}

#: Checker functions in supercon.congruences and the catalog id each serves.
CHECKERS = {
    "verify_kilbourn": "kilbourn-1.1",
    "verify_zudilin": "zudilin-1.2",
    "verify_mccarthy_osburn": "mccarthy-osburn-1.3",
    "verify_long_ramakrishna": "long-ramakrishna-p6",
    "verify_main": "main-1.4",
    "verify_cor_quarter": "cor-1.5",
    "verify_cor_6f5": "cor-1.6",
    "verify_gs": "gs-2.6",
    "verify_ff1": "ff-3.1",
    "verify_ff2": "ff-3.2",
    "verify_ff3": "ff-3.3",
    "verify_gamma_laws": "gamma-laws",
}

#: Ids whose left side goes through the dual-route series check, so each of
#: their reports is one fast-vs-exact comparison.
SERIES_IDS = {
    "kilbourn-1.1", "zudilin-1.2", "mccarthy-osburn-1.3",
    "long-ramakrishna-p6", "main-1.4", "cor-1.5", "cor-1.6",
}

#: Layer spans, with the work count each records besides calls.
LAYER_SPANS = {
    "gamma.batch": ("units", "count"),
    "gamma.single": ("units", "count"),
    "hyper.pfq_mod": ("terms", "count"),
    "hyper.pfq_exact": ("result_bits", "bits"),
    "hyper.ff1_build": None,
    "hyper.pochhammer": None,
    "eta.qexp": ("coeff_updates", "count"),
}

ARITH_COUNTS = (
    "arith.padic_mul",
    "arith.padic_div",
    "arith.padic_add",
    "arith.cyclo_mul",
    "arith.residue_mul",
    "arith.reduce_mod.calls",
)


# ---------------------------------------------------------------------------
# output checking


def parse_records(out: bytes) -> list[dict] | None:
    """`verify --format json` records without elapsed_ms; None if unreadable."""
    try:
        records = [json.loads(line) for line in out.decode().splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    for rec in records:
        rec.pop("elapsed_ms", None)
    return records


def digest(records: list[dict]) -> str:
    text = "".join(json.dumps(rec) + "\n" for rec in records)
    return hashlib.sha256(text.encode()).hexdigest()


def count_bad(returncode: int, records, expected: int, golden: str | None) -> int:
    """Failed reports of one sweep, out of the `expected` it should emit.

    A nonzero exit, unreadable output or a digest that differs from the
    golden one fails every report; the digest cannot say which differ.
    Otherwise each report that does not hold (error rows included) fails,
    and so does each one missing or extra.
    """
    if returncode != 0 or records is None:
        return expected
    if golden is not None and digest(records) != golden:
        return expected
    bad = sum(1 for rec in records if rec.get("holds") is not True)
    return min(expected, bad + abs(len(records) - expected))


def load_golden(name: str, seed: int) -> tuple[int, str | None]:
    """(report count, golden digest or None when the seed has none)."""
    entry = json.loads(GOLDEN.read_text())[name]
    return entry["reports"], entry["sha256"].get(str(seed))


# ---------------------------------------------------------------------------
# child processes


def run_child(argv) -> tuple[int, bytes, float, object]:
    """Run the interpreter on argv from the checkout root.

    Returns (exit code, stdout, wall seconds, rusage).  The rusage comes
    from wait4, so it covers the child and every worker it reaped.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode and err and err[0]:
        sys.stderr.write(err[0].decode(errors="replace")[-2000:])
    return proc.returncode, out, wall, usage


def cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_setup() -> float:
    code, _, wall, _ = run_child(SETUP_ARGV)
    if code != 0:
        raise RuntimeError(f"importing supercon failed with exit code {code}")
    return wall


def check_child_import() -> None:
    code, out, _, _ = run_child(("-c", "import supercon; print(supercon.__file__)"))
    if code != 0 or not Path(out.decode().strip()).resolve().is_relative_to(SRC):
        raise RuntimeError(f"child did not import supercon from {SRC}")


def measure_end_to_end(name: str, seed: int, seconds: float):
    """Closed loop, one sweep at a time; returns (attempted, failed, metrics)."""
    w = WORKLOADS[name]
    expected, golden = load_golden(name, seed)
    argv = ["-m", "supercon", *w.verify_argv(seed)]
    check_child_import()
    run_setup()  # untimed: a fresh checkout compiles its .pyc files here
    setups, walls, cpus, rss, rates, rounds = [], [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while len(walls) < MIN_SWEEPS or (
        time.perf_counter() - start + statistics.median(rounds) <= seconds
    ):
        t0 = time.perf_counter()
        setups += [run_setup() for _ in range(SETUPS_PER_SWEEP)]
        code, out, wall, usage = run_child(argv)
        rounds.append(time.perf_counter() - t0)
        records = parse_records(out)
        attempted += expected
        failed += count_bad(code, records, expected, golden)
        walls.append(wall)
        cpus.append(cpu_s(usage))
        rss.append(usage.ru_maxrss / 1024)
        rates.append(len(records or ()) / wall)
    # A shared host slows whole stretches of a run, never speeds one up,
    # so the sweep timings are those of the fastest sweep; the set-up
    # times, far shorter and far more of them, are a median.
    med = statistics.median
    metrics = {
        "setup_s": (med(setups), "s"),
        "wall_s": (min(walls), "s"),
        "reports_per_s": (max(rates), "1/s"),
        "cpu_s": (min(cpus), "s"),
        "peak_rss_mb": (med(rss), "MB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
    }
    return attempted, failed, metrics


# ---------------------------------------------------------------------------
# in-process traced passes


def import_program():
    """The supercon package from this checkout's src/, imported here."""
    sys.path.insert(0, str(SRC))
    import supercon.cli  # noqa: F401  (loads every layer)

    if not Path(supercon.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported supercon from {supercon.__file__}, not {SRC}")
    return supercon


def qexp_updates(limit: int) -> int:
    """Coefficient updates the eta expansion through q^limit makes."""
    return 4 * sum(
        limit - m + 1 for step in (2, 4) for m in range(step, limit + 1, step)
    )


def layer_bindings(sc, t: Tracer, arith: bool) -> list:
    """(owner, attribute, wrapper) for every layer entry, at the name the
    calling module bound; with arith, also the ring-operation counters."""
    cli, cong, gamma, ar = sc.cli, sc.congruences, sc.gamma, sc.arith
    batch = gamma.GammaBatch

    def sweep_length(args, result):
        return args[0].sweep_length

    def representative(args, result):
        return ar.reduce_mod(*args).value

    def terms(args, result):
        return args[0].n

    def bits(args, result):
        return result.numerator.bit_length() + result.denominator.bit_length()

    def updates(args, result):
        return qexp_updates(args[0])

    spans = [
        (cli, "sweep", "congruences.sweep", None),
        (batch, "run", "gamma.batch", ("units", sweep_length)),
        (cong, "gamma_p", "gamma.single", ("units", representative)),
        (cong, "pfq_mod", "hyper.pfq_mod", ("terms", terms)),
        (cong, "pfq_exact", "hyper.pfq_exact", ("result_bits", bits)),
        (cong, "ff1_build", "hyper.ff1_build", None),
        (cong, "pochhammer", "hyper.pochhammer", None),
        (cong, "eta_product_qexp", "eta.qexp", ("coeff_updates", updates)),
    ]
    spans += [(cong, fn, "congruences." + c, None) for fn, c in CHECKERS.items()]
    out = [
        (owner, attr, t.span(name, getattr(owner, attr), extra))
        for owner, attr, name, extra in spans
    ]
    if arith:
        ops = [
            (ar.PadicCapped, "__mul__", "arith.padic_mul"),
            (ar.PadicCapped, "__truediv__", "arith.padic_div"),
            (ar.PadicCapped, "__add__", "arith.padic_add"),
            (ar.CycloElem, "__mul__", "arith.cyclo_mul"),
            (ar.CycloElem, "__rmul__", "arith.cyclo_mul"),
            (ar.PrimePowerResidue, "__mul__", "arith.residue_mul"),
            (ar.PrimePowerResidue, "__rmul__", "arith.residue_mul"),
            (cong, "reduce_mod", "arith.reduce_mod.calls"),
            (gamma, "reduce_mod", "arith.reduce_mod.calls"),
        ]
        out += [(o, attr, t.count(name, getattr(o, attr))) for o, attr, name in ops]
    return out


@dataclass
class Pass:
    code: int
    records: list | None
    out_bytes: int
    wall: float
    oracle: int | None  # change of congruences.oracle_comparisons
    tracer: Tracer | None


def run_pass(sc, argv, tracer: Tracer | None = None, arith: bool = False) -> Pass:
    """One `supercon verify` through cli.main in this process."""
    buf = io.StringIO()
    before = getattr(sc.congruences, "oracle_comparisons", None)
    main = sc.cli.main if tracer is None else tracer.span("cli", sc.cli.main)
    bindings = [] if tracer is None else layer_bindings(sc, tracer, arith)
    with patched(bindings), redirect_stdout(buf):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    oracle = None
    if before is not None:
        oracle = sc.congruences.oracle_comparisons - before
    text = buf.getvalue().encode()
    return Pass(code, parse_records(text), len(text), wall, oracle, tracer)


def trace_problems(w: Workload, untraced, traced, counted) -> list[str]:
    """Reasons the traced numbers cannot be trusted; empty when they can."""
    problems = []
    passes = untraced + traced + counted
    records = untraced[0].records or []
    if any(p.records != records for p in passes):
        problems.append("traced and untraced passes printed different reports")
    series = sum(
        1 for rec in records if rec["id"] in SERIES_IDS and rec["lhs"] != "error"
    )
    for p in passes:
        if p.oracle is not None and p.oracle != series:
            problems.append(f"oracle_comparisons moved by {p.oracle}, not {series}")
    must_call = {*w.covers, "cli", "congruences.sweep"}
    must_call |= {"congruences." + rec["id"] for rec in records}
    for p in traced + counted:
        for name in sorted(must_call):
            if p.tracer.counts[name + ".calls"] == 0:
                problems.append(f"span {name} recorded no calls")
    span_counts = traced[0].tracer.counts
    if any(p.tracer.counts != span_counts for p in traced):
        problems.append("span counts differ between traced passes")
    if any(p.tracer.counts != counted[0].tracer.counts for p in counted):
        problems.append("arith counts differ between counted passes")
    if any(counted[0].tracer.counts[k] != v for k, v in span_counts.items()):
        problems.append("span counts differ with arith counting on")
    return sorted(set(problems))


def layer_metrics(untraced, traced, counted, parallel_eff: float) -> dict:
    """Per-layer metrics: medians of self time, counts from a counted pass."""
    selfs = [self_times(p.tracer.spans) for p in traced]
    counts = counted[0].tracer.counts
    records = counted[0].records or []

    def self_s(span):
        return statistics.median(s.get(span, 0.0) for s in selfs)

    m = {}
    for span, extra in LAYER_SPANS.items():
        m[span + ".self_s"] = (self_s(span), "s")
        m[span + ".calls"] = (counts[span + ".calls"], "count")
        if extra:
            m[f"{span}.{extra[0]}"] = (counts[f"{span}.{extra[0]}"], extra[1])
    for name in ARITH_COUNTS:
        m[name] = (counts[name], "count")
    for cid in CHECKERS.values():
        m[f"congruences.{cid}.self_s"] = (self_s("congruences." + cid), "s")
        reports = sum(1 for rec in records if rec["id"] == cid)
        m[f"congruences.{cid}.reports"] = (reports, "count")
    oracle = counted[0].oracle
    if oracle is None:  # the global is gone: count oracle calls instead
        oracle = counts["hyper.pfq_exact.calls"]
    m["congruences.oracle_compares"] = (oracle, "count")
    m["congruences.sweep.self_s"] = (self_s("congruences.sweep"), "s")
    m["congruences.pool.parallel_eff"] = (parallel_eff, "ratio")
    m["cli.self_s"] = (self_s("cli"), "s")
    m["cli.out_bytes"] = (counted[0].out_bytes, "bytes")
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    return m


def measure_traced(name: str, seed: int, seconds: float):
    """Serial in-process passes; returns (attempted, failed, metrics, problems).

    Each cycle runs an untraced pass, a traced pass (spans only) and a
    counted pass (spans plus ring-operation counters, which would inflate
    self times).  One untraced child sweep with the workload's own --jobs
    gives the pool's parallel efficiency.
    """
    w = WORKLOADS[name]
    expected, golden = load_golden(name, seed)
    sc = import_program()
    code, out, wall, usage = run_child(["-m", "supercon", *w.verify_argv(seed)])
    attempted = expected
    failed = count_bad(code, parse_records(out), expected, golden)
    parallel_eff = cpu_s(usage) / (w.jobs * wall)

    argv = w.verify_argv(seed, jobs=1)
    untraced, traced, counted, rounds = [], [], [], []
    start = time.perf_counter()
    while len(rounds) < MIN_TRACE_CYCLES or (
        time.perf_counter() - start + statistics.median(rounds) <= seconds
    ):
        t0 = time.perf_counter()
        untraced.append(run_pass(sc, argv))
        traced.append(run_pass(sc, argv, Tracer()))
        counted.append(run_pass(sc, argv, Tracer(), arith=True))
        rounds.append(time.perf_counter() - t0)
    for p in untraced + traced + counted:
        attempted += expected
        failed += count_bad(p.code, p.records, expected, golden)
    metrics = layer_metrics(untraced, traced, counted, parallel_eff)
    return attempted, failed, metrics, trace_problems(w, untraced, traced, counted)


# ---------------------------------------------------------------------------
# golden digests


def write_golden() -> None:
    """Record report counts and output digests for GOLDEN_SEEDS.

    Refuses output in which any report fails to hold, and checks once that
    a pooled workload prints the same reports serially.
    """
    golden = {}
    for name, w in WORKLOADS.items():
        digests, counts = {}, set()
        for seed in GOLDEN_SEEDS:
            code, out, _, _ = run_child(["-m", "supercon", *w.verify_argv(seed)])
            records = parse_records(out)
            if not records or count_bad(code, records, len(records), None):
                raise RuntimeError(f"{name} seed {seed}: exit {code}, failed reports")
            digests[str(seed)] = digest(records)
            counts.add(len(records))
        if len(counts) != 1:
            raise RuntimeError(f"{name}: report count depends on the seed: {counts}")
        if w.jobs > 1:
            code, out, _, _ = run_child(["-m", "supercon", *w.verify_argv(0, 1)])
            if code != 0 or digest(parse_records(out) or []) != digests["0"]:
                raise RuntimeError(f"{name}: --jobs 1 prints other reports")
        golden[name] = {"reports": counts.pop(), "sha256": digests}
        print(f"{name}: {golden[name]['reports']} reports", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "supercon" / "cli.py").is_file():
        print(f"error: no supercon sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    problems = []
    run = (args.workload, args.seed, args.seconds)
    if args.trace:
        attempted, failed, metrics, problems = measure_traced(*run)
    else:
        attempted, failed, metrics = measure_end_to_end(*run)
    for msg in problems:
        print(f"trace check failed: {msg}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:>16.6g} {unit}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
