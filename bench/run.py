#!/usr/bin/env python3
"""Benchmark of the cicyweb package, every output checked independently.

Run from the repository root (standard library only; the package is
imported from ``src``):

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client in this single process:
an op starts when the previous one ends, for ``--seconds`` seconds of op
time, in whole rounds.  A round runs every op of the workload's fixed pool
once, in an order drawn from ``--seed`` and the round number, after
clearing every ``lru_cache`` of the package, so every round does the same
work and caches stay warm only across the ops of one round.

* ``sweep``: connect_to_c1111, chain_to_json, chain_from_json and
  verify_chain on one random_cicy(s, 7, 9) matrix per op.
* ``invariants``: euler_number, hilbert_polynomial (all-ones polarization)
  and analyze on every contraction site of one random_cicy(s, 7, 9) matrix.
* ``cli``: one fresh ``python -m cicyweb.cli <subcommand> --json`` process
  per op, over a fixed subcommand mix.

After each round, outside the timed ops, every output is checked against
``oracle`` (intersection numbers computed apart from the package) or a
property the method must have.  After each op a fixed reference task is
timed too, and every reported time is scaled to the machine speed at
which that task takes its reference time (see ``loop_factor`` and
``start_factor``).  With
``--trace 1`` alternate rounds run with every public function wrapped (see
``spans``) and the run reports the per-layer metrics instead.  The last
stdout line is the JSON result; a copy of it with raw wall times and the
spans go to ``bench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracle
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: random_cicy(s, 7, 9) seeds of each workload's pool.
SWEEP_SEEDS = range(0, 100)
INVARIANTS_SEEDS = range(100_000, 100_160)
CLI_SEEDS = (200_000, 200_001, 200_002, 200_003)
#: Ops run untimed before the first round, so that first-call costs
#: (allocator growth, bytecode specialization) fall outside the timing.
WARMUP_OPS = 8
SETUP_SAMPLES = 11
PROBE_SAMPLES = 7
CHILD_TIMEOUT_S = 120
#: Seconds the reference tasks take at the speed every time is scaled to:
#: about their times on an idle core of the 2.1 GHz Xeon the figures in the
#: README come from.  The loop gauges in-process ops, the bare interpreter
#: start gauges ops that start a child process.
REFERENCE_LOOP_S = 0.0005
REFERENCE_START_S = 0.040

#: The README's example matrices, run by every cli round.
QUINTIC_TEXT = "4 | 5\n"
SPLIT_TEXT = "4 | 4 1\n1 | 1 1\n"
CLI_SUBCOMMANDS = (
    ("validate",),
    ("invariants",),
    ("transition", "--all"),
    ("connect", "--emit-chain"),
)
HUB = ((1, 1, 1, 1), ((2,), (2,), (2,), (2,)))


def import_program():
    """Import cicyweb from this checkout's ``src``; exit 1 when it is absent."""
    if not (SRC / "cicyweb" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import cicyweb
    import cicyweb.cli

    if Path(cicyweb.__file__).resolve().parent != SRC / "cicyweb":
        sys.exit(f"error: imported cicyweb from {cicyweb.__file__}, not {SRC}")
    return cicyweb


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the reference
    loop gauges the speed of the CPU the ops ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def clear_caches() -> None:
    """Empty every functools cache held at module level in the package."""
    for name, module in list(sys.modules.items()):
        if name == "cicyweb" or name.startswith("cicyweb."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def reference_loop() -> int:
    """Fixed pure-Python work, timed after every op to gauge machine speed."""
    table: dict = {}
    total = 0
    for i in range(1500):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0) + i * i
        total += (key[0] * 40503 + key[1]) % 9973
    return total + len(sorted(table.values()))


def time_reference_loop() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def loop_factor() -> float:
    """REFERENCE_LOOP_S over the median of three reference-loop times.

    An op's wall time times the factor measured right after it is its time
    at the reference speed.  This takes out the swings of a shared
    machine's speed, which reached 1.8x within seconds on the machine the
    README's figures come from."""
    return REFERENCE_LOOP_S / statistics.median(time_reference_loop() for _ in range(3))


def start_factor(env: dict) -> float:
    """REFERENCE_START_S over the wall time of a fresh ``python -c pass``:
    process start and interpreter set-up slow down less than the loop does
    when the machine is busy, so child-process ops are gauged by one."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=CHILD_TIMEOUT_S)
    return REFERENCE_START_S / (time.perf_counter() - start)


def parse_rows(lines) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``["n | q q", ...]`` (or one text block) as (factors, rows)."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    factors, rows = [], []
    for line in lines:
        if line.strip():
            n, degrees = line.split("|")
            factors.append(int(n))
            rows.append(tuple(int(q) for q in degrees.split()))
    return tuple(factors), tuple(rows)


def layout(cfg) -> tuple:
    return cfg.factors, cfg.rows


def sorted_layout(factors, rows) -> tuple:
    """Factors plus the multiset of columns: invariant under column moves."""
    return tuple(factors), tuple(sorted(oracle.columns_of(tuple(rows))))


def check_chain(chain, report) -> list[str]:
    """A chain and its verify_chain report against the oracle."""
    problems = []
    if not report.ok:
        problems.append("verify_chain failed: " + "; ".join(report.failures))
    ways = [layout(w) for w in chain.waypoints()]
    if ways[-1] != HUB or layout(chain.end) != HUB:
        problems.append("chain does not end at four [1|2] rows")
    if len(report.checks) != len(chain.steps):
        problems.append("verify_chain checked a different number of steps")
    for index, (step, check) in enumerate(zip(chain.steps, report.checks)):
        before, after = ways[index], ways[index + 1]
        resolved, smoothed = (before, after) if step.kind == "contract" else (after, before)
        try:
            expected = (oracle.euler(*resolved), oracle.euler(*smoothed))
        except oracle.OracleError as err:
            problems.append(f"step {index}: waypoint {err}")
            continue
        if (check.euler_resolved, check.euler_smoothed) != expected:
            problems.append(
                f"step {index}: e {check.euler_resolved} -> {check.euler_smoothed}, "
                f"oracle {expected[0]} -> {expected[1]}"
            )
        if check.odp_count < 0 or expected[0] - expected[1] != 2 * check.odp_count:
            problems.append(f"step {index}: N = {check.odp_count} but oracle e-difference "
                            f"{expected[0] - expected[1]}")
    return problems


def check_sites(factors, rows, found) -> list[str]:
    """``found``: (row, one_columns, euler_resolved, euler_smoothed, odp_count) per site."""
    problems = []
    if [(row, tuple(cols)) for row, cols, *_ in found] != oracle.sites(factors, rows):
        problems.append("contraction sites differ from the oracle's")
        return problems
    e = oracle.euler(factors, rows)
    for row, cols, resolved, smoothed, count in found:
        e_smoothed = oracle.euler(*oracle.contract(factors, rows, row, tuple(cols)))
        if (resolved, smoothed) != (e, e_smoothed):
            problems.append(f"row {row}: e {resolved} -> {smoothed}, oracle {e} -> {e_smoothed}")
        if count < 0 or e - e_smoothed != 2 * count:
            problems.append(f"row {row}: N = {count} but oracle e-difference {e - e_smoothed}")
    return problems


# ----------------------------------------------------------------------
# workloads


class Workload:
    """A fixed pool of ops; round ``r`` runs all of them in a seeded order."""

    def __init__(self, program, seed: int):
        self.p, self.seed = program, seed
        self.pool = self.make_pool()

    def make_pool(self) -> list:
        raise NotImplementedError

    def round(self, round_index: int) -> list[int]:
        """Pool indices in the order round ``round_index`` runs them."""
        order = list(range(len(self.pool)))
        random.Random(f"{self.seed}/{round_index}").shuffle(order)
        return order

    @staticmethod
    def matrix(op):
        """The op's input as (factors, rows), or None."""
        return layout(op)

    def speed_factor(self) -> float:
        return loop_factor()


class Sweep(Workload):
    """connect -> chain JSON round trip -> verify, one generated matrix per op."""

    def make_pool(self) -> list:
        return [self.p.random_cicy(s, 7, 9) for s in SWEEP_SEEDS]

    def run(self, cfg):
        web = self.p.web
        chain = web.connect_to_c1111(cfg)
        text = web.chain_to_json(chain)
        reloaded = web.chain_from_json(text)
        return chain, text, reloaded, web.verify_chain(reloaded)

    def check(self, cfg, out) -> list[str]:
        chain, text, reloaded, report = out
        problems = check_chain(reloaded, report)
        if layout(chain.start) != layout(cfg):
            problems.append("chain does not start at the input matrix")
        if self.p.web.chain_to_json(reloaded) != text:
            problems.append("JSON round trip changed the chain text")
        return problems

    def tampered(self):
        cfg = self.p.parse_matrix(SPLIT_TEXT)
        chain, text, reloaded, report = out = self.run(cfg)
        yield None, cfg, out
        first = dataclasses.replace(report.checks[0], odp_count=report.checks[0].odp_count + 1)
        bad_report = dataclasses.replace(report, checks=(first,) + report.checks[1:])
        yield "wrong ODP count", cfg, (chain, text, reloaded, bad_report)
        yield "tampered waypoint", cfg, self.with_bad_waypoint(chain)

    def with_bad_waypoint(self, chain):
        web = self.p.web
        step = dataclasses.replace(chain.steps[0], after_matrix=chain.start)
        bad = dataclasses.replace(chain, steps=(step,) + chain.steps[1:])
        text = web.chain_to_json(bad)
        reloaded = web.chain_from_json(text)
        return bad, text, reloaded, web.verify_chain(reloaded)


class Invariants(Workload):
    """Euler number, Hilbert polynomial and every site's analysis per op."""

    def make_pool(self) -> list:
        return [self.p.random_cicy(s, 7, 9) for s in INVARIANTS_SEEDS]

    def run(self, cfg):
        inv, tr = self.p.invariants, self.p.transitions
        e = inv.euler_number(cfg)
        hp = inv.hilbert_polynomial(cfg, [1] * cfg.k)
        sites = [(s.row, s.one_columns, tr.analyze(s)) for s in tr.find_contraction_sites(cfg)]
        return e, hp, sites

    def check(self, cfg, out) -> list[str]:
        e, hp, sites = out
        factors, rows = layout(cfg)
        problems = []
        if e != oracle.euler(factors, rows):
            problems.append(f"euler_number {e}, oracle {oracle.euler(factors, rows)}")
        coefficients = tuple(hp.coefficients)
        if tuple(hp.polarization) != (1,) * cfg.k:
            problems.append("Hilbert polynomial of the wrong polarization")
        if coefficients != oracle.hilbert(factors, rows):
            problems.append(f"Hilbert coefficients {coefficients}, oracle {oracle.hilbert(factors, rows)}")
        elif coefficients[0] or coefficients[2]:
            problems.append("Hilbert polynomial is not odd in l")
        found = [
            (row, cols, r.euler_resolved, r.euler_smoothed, r.odp_count) for row, cols, r in sites
        ]
        return problems + check_sites(factors, rows, found)

    def tampered(self):
        cfg = self.p.parse_matrix(SPLIT_TEXT)
        e, hp, sites = out = self.run(cfg)
        yield None, cfg, out
        yield "wrong Euler number", cfg, (e + 2, hp, sites)
        coefficients = hp.coefficients[:-1] + (hp.coefficients[-1] + 1,)
        yield "wrong Hilbert coefficient", cfg, (
            e, dataclasses.replace(hp, coefficients=coefficients), sites
        )
        row, cols, report = sites[0]
        bad = dataclasses.replace(report, odp_count=report.odp_count + 1)
        yield "wrong ODP count", cfg, (e, hp, [(row, cols, bad)] + sites[1:])


class Cli(Workload):
    """One ``python -m cicyweb.cli ... --json`` child process per op.

    The pool runs every subcommand of ``CLI_SUBCOMMANDS`` on the README's
    quintic and split quintic and on the CLI_SEEDS matrices, plus
    ``catalog --run-all``: 25 ops.  An op is ``(argv, matrix)``.
    """

    def __init__(self, program, seed: int):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.work = OUT / "work"
        self.max_child_rss_kb = 0
        super().__init__(program, seed)

    def _write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text)
        return str(path.relative_to(ROOT))

    def make_pool(self) -> list:
        self.work.mkdir(parents=True, exist_ok=True)
        texts = [QUINTIC_TEXT, SPLIT_TEXT] + [
            self.p.random_cicy(s, 7, 9).render() + "\n" for s in CLI_SEEDS
        ]
        ops = []
        for index, text in enumerate(texts):
            path = self._write(f"matrix-{index}.txt", text)
            for sub in CLI_SUBCOMMANDS:
                argv = [sub[0], path, *sub[1:]]
                if sub[0] == "connect":
                    argv.append(str((self.work / f"chain-{index}.json").relative_to(ROOT)))
                ops.append((argv, parse_rows(text)))
        ops.append((["catalog", "--run-all"], None))
        return ops

    @staticmethod
    def matrix(op):
        return op[1]

    def speed_factor(self) -> float:
        return start_factor(self.env)

    def run(self, op):
        argv, _ = op
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "cicyweb.cli", *argv, "--json"],
                stdout=out, stderr=err, cwd=ROOT, env=self.env,
            )
            # wait4 reports the child's peak RSS; the alarm kills a hung child.
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(), err_path.read_text(), self._chain_text(argv)

    def run_in_process(self, op):
        """The same op through ``cicyweb.cli.main`` in this process (traced
        runs, which clear the caches before each op, as in a fresh process)."""
        argv, _ = op
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.p.cli.main([*argv, "--json"])
        return code, stdout.getvalue(), stderr.getvalue(), self._chain_text(argv)

    @staticmethod
    def _chain_text(argv):
        return (ROOT / argv[-1]).read_text() if argv[0] == "connect" else None

    def check(self, op, out) -> list[str]:
        (argv, matrix), (code, stdout, stderr, chain_text) = op, out
        if code != 0:
            return [f"{' '.join(argv)}: exit {code}: {stderr.strip()[-300:]}"]
        try:
            payload = json.loads(stdout)
        except ValueError:
            return [f"{' '.join(argv)}: output is not JSON"]
        results = payload["results"]
        check = getattr(self, "_check_" + argv[0])
        return [f"{' '.join(argv)}: {p}" for p in check(matrix, results, payload, chain_text)]

    def _check_validate(self, matrix, results, payload, chain_text):
        factors, rows = matrix
        expected = {
            "dimension": sum(factors) - len(rows[0]),
            "is_cicy": not oracle.cy3_problems(factors, rows),
            "block_diagonal": not oracle.is_connected(rows),
        }
        got = {key: results[key] for key in expected}
        return [] if got == expected else [f"flags {got}, oracle {expected}"]

    def _check_invariants(self, matrix, results, payload, chain_text):
        factors, rows = matrix
        problems = []
        e = oracle.euler(factors, rows)
        if results["euler_number"] != e:
            problems.append(f"euler number {results['euler_number']}, oracle {e}")
        coefficients = [str(c) for c in oracle.hilbert(factors, rows)]
        if results["hilbert"]["coefficients"] != coefficients:
            problems.append(f"Hilbert coefficients {results['hilbert']['coefficients']}, oracle {coefficients}")
        if matrix == parse_rows(QUINTIC_TEXT) and (
            results["euler_number"] != -200
            or results["hilbert"]["polynomial"] != "(5/6)*l^3 + (25/6)*l"
        ):
            problems.append("quintic is not e = -200, (5/6)*l^3 + (25/6)*l")
        hodge = results.get("hodge")
        if hodge and 2 * (hodge["h11"] - hodge["h21"]) != e:
            problems.append(f"Hodge pair {hodge} disagrees with oracle e = {e}")
        return problems

    def _check_transition(self, matrix, results, payload, chain_text):
        factors, rows = matrix
        found = [
            (s["row"] - 1, [j - 1 for j in s["one_columns"]], s["euler_resolved"],
             s["euler_smoothed"], s["odp_count"])
            for s in results["sites"]
        ]
        problems = check_sites(factors, rows, found)
        for s, (row, cols, *_) in zip(results["sites"], found):
            if not problems and sorted_layout(*parse_rows(s["contracted"])) != sorted_layout(
                *oracle.contract(factors, rows, row, tuple(cols))
            ):
                problems.append(f"row {row + 1}: contracted matrix differs from the oracle's")
        return problems

    def _check_connect(self, matrix, results, payload, chain_text):
        web = self.p.web
        problems = []
        if not results["verified"] or results["end"] != ["1 | 2"] * 4:
            problems.append("chain not verified or not ending at four [1|2] rows")
        chain = web.chain_from_json(chain_text)
        report = web.verify_chain(chain)
        problems.extend(check_chain(chain, report))
        if layout(chain.start) != matrix:
            problems.append("emitted chain does not start at the input matrix")
        printed = [(s["odp_count"], s["euler_resolved"], s["euler_smoothed"]) for s in results["steps"]]
        reloaded = [(c.odp_count, c.euler_resolved, c.euler_smoothed) for c in report.checks]
        if printed != reloaded:
            problems.append("printed steps differ from the emitted chain's verification")
        return problems

    def _check_catalog(self, matrix, results, payload, chain_text):
        checks = payload["checks"]
        failed = [c["name"] for c in checks if not c["pass"]]
        return ([] if checks else ["no catalog checks ran"]) + [f"check {n} failed" for n in failed]

    def tampered(self):
        quintic, split = parse_rows(QUINTIC_TEXT), parse_rows(SPLIT_TEXT)
        ops = {(op[0][0], op[1]): op for op in self.pool}

        def edit(label, op, change):
            code, stdout, stderr, chain_text = out = self.run(op)
            yield None, op, out
            payload = json.loads(stdout)
            change(payload["results"])
            yield label, op, (code, json.dumps(payload), stderr, chain_text)

        def bump_euler(results):
            results["euler_number"] += 2

        def bump_hilbert(results):
            results["hilbert"]["coefficients"][3] = "1/2"

        def bump_odp(results):
            results["sites"][0]["odp_count"] += 1

        yield from edit("wrong Euler number", ops["invariants", quintic], bump_euler)
        yield from edit("wrong Hilbert coefficient", ops["invariants", quintic], bump_hilbert)
        yield from edit("wrong ODP count", ops["transition", split], bump_odp)
        op = ops["connect", split]
        code, stdout, stderr, chain_text = out = self.run(op)
        yield None, op, out
        chain = json.loads(chain_text)
        chain["steps"][0]["matrix"] = chain["start"]
        yield "tampered waypoint", op, (code, stdout, stderr, json.dumps(chain))


WORKLOADS = {"sweep": Sweep, "invariants": Invariants, "cli": Cli}


def self_test(workload) -> tuple[int, list[str]]:
    """Hand the output checks tampered outputs; each must count as a failed op.

    ``tampered()`` yields ``(label, op, output)``; label None marks an
    untampered output, which must pass.  Returns the number of tampered
    outputs caught and the labels of every output judged wrongly.
    """
    caught, misjudged = 0, []
    for label, op, out in workload.tampered():
        problems = workload.check(op, out)
        if label is None and problems:
            misjudged.append("untampered: " + "; ".join(problems))
        elif label is not None and not problems:
            misjudged.append(label)
        else:
            caught += label is not None
    return caught, misjudged


# ----------------------------------------------------------------------
# timing


@dataclasses.dataclass
class Rounds:
    """What ``run_rounds`` measured, one entry per op in run order."""

    kinds: list = dataclasses.field(default_factory=list)
    wall: list = dataclasses.field(default_factory=list)
    factor: list = dataclasses.field(default_factory=list)
    round_of: list = dataclasses.field(default_factory=list)
    pool_index: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: list = dataclasses.field(default_factory=list)

    def scaled(self) -> list[float]:
        """Op seconds at the reference speed."""
        return [w * f for w, f in zip(self.wall, self.factor)]

    def times(self, kind: str, scaled: bool = True) -> list[float]:
        values = self.scaled() if scaled else self.wall
        return [t for t, k in zip(values, self.kinds) if k == kind]


def round_kind(traced: bool, round_index: int) -> str:
    """Timed runs time every round.  Traced runs trace rounds in the order
    U T T U U T T U ... so that drift over the run falls on both kinds alike."""
    return "traced" if traced and round_index % 4 in (1, 2) else "untraced"


def run_rounds(workload, seconds: float, tracer=None, caches=None) -> Rounds:
    """Whole rounds of ops until ``seconds`` of op wall time have passed,
    after WARMUP_OPS untimed and unchecked ops.

    Outputs are checked after each round, outside the timed ops.  Traced
    runs run cli ops in process, so that the wrappers see them.
    """
    got = Rounds()
    in_process = tracer is not None and isinstance(workload, Cli)
    run = workload.run_in_process if in_process else workload.run
    speed_factor = loop_factor if in_process else workload.speed_factor
    for op in workload.pool[:WARMUP_OPS]:
        if in_process:
            clear_caches()
        with contextlib.suppress(Exception):  # the rounds count its failure
            run(op)
    busy, round_index = 0.0, 0
    # A traced run has at least one untraced and one traced round.
    while busy < seconds or (tracer is not None and round_index < 3):
        kind = round_kind(tracer is not None, round_index)
        clear_caches()
        if kind == "traced":
            tracer.install()
        outputs = []
        for index in workload.round(round_index):
            op = workload.pool[index]
            if in_process:
                clear_caches()
            if kind == "traced":
                tracer.op = len(got.wall)
                caches.start()
            start = time.perf_counter()
            try:
                out = run(op)
            except Exception as err:  # an op that raises is a failed op
                out = err
            wall = time.perf_counter() - start
            if kind == "traced":
                caches.stop()
            busy += wall
            got.wall.append(wall)
            got.factor.append(speed_factor())
            got.kinds.append(kind)
            got.round_of.append(round_index)
            got.pool_index.append(index)
            outputs.append((op, out))
        if kind == "traced":
            tracer.uninstall()
            tracer.op = -1
        for op, out in outputs:
            got.attempted += 1
            if isinstance(out, Exception):
                got.failed += 1
                got.errors.append(f"{type(out).__name__}: {out}")
                continue
            problems = workload.check(op, out)
            if problems:
                got.failed += 1
                got.wrong += 1
                got.errors.extend(problems)
        round_index += 1
    return got


def round_rates(got: Rounds, kind: str) -> list[float]:
    """Ops per second of scaled op time, one value per round of ``kind``."""
    per_round: dict = {}
    for t, k, r in zip(got.scaled(), got.kinds, got.round_of):
        if k == kind:
            count, total = per_round.get(r, (0, 0.0))
            per_round[r] = (count + 1, total + t)
    return [count / total for count, total in per_round.values()]


class CacheDelta:
    """Hits and misses of the program's lru_caches, summed over traced ops.

    ``cache_clear`` zeroes the counts, so no clear may fall between a
    ``start`` and its ``stop``."""

    def __init__(self, program):
        self.caches = {
            "invariants.euler_cache": program.invariants._euler_cached,
            "configuration.canonical_cache": program.configuration._canonical_cached,
        }
        self.hits = dict.fromkeys(self.caches, 0)
        self.misses = dict.fromkeys(self.caches, 0)
        self._before = {}

    def start(self):
        self._before = {name: cache.cache_info() for name, cache in self.caches.items()}

    def stop(self):
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[name] += info.hits - self._before[name].hits
            self.misses[name] += info.misses - self._before[name].misses

    def ratio(self, name: str) -> float:
        total = self.hits[name] + self.misses[name]
        return self.hits[name] / total if total else 0.0


def measure_setup(workload_name: str, seed: int) -> list[tuple[float, float]]:
    """(wall seconds, speed factor) of ``import cicyweb`` plus building the
    workload's pool, each in a fresh process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload_name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True,
        )
        wall, factor = proc.stdout.split()[-2:]
        samples.append((float(wall), float(factor)))
    return samples


def setup_probe(workload_name: str, seed: int) -> None:
    start = time.perf_counter()
    program = import_program()
    WORKLOADS[workload_name](program, seed)
    wall = time.perf_counter() - start
    print(f"{wall:.9f} {loop_factor():.9f}")


def child_ms(code: str) -> float:
    """Median ms, at the reference speed, of ``python -c code`` in fresh
    processes (or of the seconds it prints)."""
    samples = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S, check=True)
        wall = time.perf_counter() - start
        seconds = float(proc.stdout) if proc.stdout.strip() else wall
        samples.append(seconds * loop_factor() * 1000)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# traced run


TRACED = (
    ("configuration", "canonical_key"),
    ("configuration", "validate"),
    ("chow", "chern_of_sum"),
    ("chow", "chi_line_bundle"),
    ("invariants", "euler_number"),
    ("invariants", "hilbert_polynomial"),
    ("transitions", "find_contraction_sites"),
    ("transitions", "odp_count"),
    ("transitions", "analyze"),
    ("web", "connect_to_c1111"),
    ("web", "verify_chain"),
    ("web", "chain_to_json"),
    ("web", "chain_from_json"),
    ("catalog", "run_entry"),
    ("cli", "main"),
)

PER_OP_CALLS = (
    "transitions.analyze", "transitions.odp_count", "chow.chern_of_sum",
    "invariants.euler_number", "invariants.hilbert_polynomial", "chow.chi_line_bundle",
    "configuration.canonical_key",
)
PER_OP_SELF = PER_OP_CALLS + (
    "web.connect_to_c1111", "web.verify_chain", "configuration.validate",
)
CLI_MAIN_SUBCOMMANDS = ("validate", "invariants", "transition", "connect", "catalog")


def make_tracer(program):
    modules = [getattr(program, name) for name in
               ("configuration", "chow", "invariants", "transitions", "web", "catalog", "cli")]
    traced = {f"{mod}.{fn}": getattr(getattr(program, mod), fn) for mod, fn in TRACED}
    hooks = {
        "transitions.analyze": lambda args, result: (
            args[0].config.factors, args[0].config.rows, args[0].row, args[0].one_columns
        ),
        "web.connect_to_c1111": lambda args, result: len(result.steps),
        "cli.main": lambda args, result: args[0][0],
        "catalog.run_entry": lambda args, result: args[0],
    }
    return spans.Tracer(modules, traced, hooks)


def trace_probe(program, workload, tracer, caches, first_op: int) -> tuple[dict, list]:
    """Fixed probe after the traced rounds: fresh-process costs, then traced
    in-process ``cli.main`` calls on the README matrices and one catalog
    pass, each from cold caches.  Returns the fresh-process metrics and the
    speed factor after each traced probe op."""
    metrics = {
        "cli.interpreter_ms": child_ms("pass"),
        "cli.import_ms": child_ms(
            "import time; t = time.perf_counter(); import cicyweb; "
            "print(time.perf_counter() - t)"
        ),
    }
    cli = workload if isinstance(workload, Cli) else Cli(program, 0)
    readme = (None, parse_rows(QUINTIC_TEXT), parse_rows(SPLIT_TEXT))
    calls = [lambda op=op: cli.run_in_process(op) for op in cli.pool if op[1] in readme]
    calls += [lambda name=name: program.catalog.run_entry(name) for name in program.entry_names()]
    factors = []
    tracer.install()
    try:
        for index, call in enumerate(calls):
            clear_caches()
            tracer.op = first_op + index
            caches.start()
            call()
            caches.stop()
            factors.append(loop_factor())
    finally:
        tracer.uninstall()
        tracer.op = -1
    return metrics, factors


def layer_metrics(tracer, factors: list[float], rounds: list[int], ops: int,
                  caches, probe: dict, rates: dict) -> dict:
    """Per-layer metrics over the ``ops`` traced ops (traced rounds and probe).

    ``factors`` and ``rounds`` map op ids to speed factors, which scale
    the op's span times, and to the round the op ran in.
    """
    totals = tracer.totals(factors)
    out = {}
    for name in PER_OP_CALLS:
        out[f"{name}.calls"] = (totals[name]["calls"] / ops, "1/op")
    for name in PER_OP_SELF:
        out[f"{name}.self_ms"] = (totals[name]["self_ms"] / ops, "ms/op")
    json_ms = totals["web.chain_to_json"]["self_ms"] + totals["web.chain_from_json"]["self_ms"]
    out["web.chain_json.self_ms"] = (json_ms / ops, "ms/op")
    steps = sum(totals["web.connect_to_c1111"]["tags"])
    out["web.chain_steps"] = (steps / ops, "1/op")
    analyze_calls = totals["transitions.analyze"]["calls"]
    out["transitions.analyze.per_step"] = (analyze_calls / max(steps, 1), "1/step")
    out["transitions.analyze.repeat_ratio"] = (
        tracer.repeat_ratio("transitions.analyze", rounds), "ratio"
    )
    for name in caches.caches:
        out[f"{name}.hit_ratio"] = (caches.ratio(name), "ratio")
    for key, value in probe.items():
        out[key] = (value, "ms")
    by_sub = tracer.durations_by_tag("cli.main", factors)
    for sub in CLI_MAIN_SUBCOMMANDS:
        out[f"cli.main.{sub}.ms"] = (statistics.median(by_sub[sub]), "ms")
    by_entry = tracer.durations_by_tag("catalog.run_entry", factors)
    out["catalog.run_entry.ms"] = (sum(map(statistics.median, by_entry.values())), "ms")
    out["trace.ops_per_s"] = (rates["traced"], "1/s")
    out["trace.overhead_pct"] = ((rates["untraced"] / rates["traced"] - 1) * 100, "%")
    return out


# ----------------------------------------------------------------------
# main


def input_summary(workload) -> dict:
    """Distributions of rows k, columns m and Chow-lattice cells prod(n_i + 1)
    over the pool's distinct matrices."""
    layouts = list(dict.fromkeys(m for m in map(workload.matrix, workload.pool) if m is not None))

    def histogram(values):
        return dict(sorted(Counter(values).items()))

    cells = []
    for factors, _ in layouts:
        size = 1
        for n in factors:
            size *= n + 1
        cells.append(size)
    return {
        "distinct_matrices": len(layouts),
        "k": histogram(len(f) for f, _ in layouts),
        "m": histogram(len(r[0]) for _, r in layouts),
        "lattice_cells_median": statistics.median(cells) if cells else None,
        "lattice_cells_max": max(cells, default=None),
    }


def op_metrics(times: list[float]) -> dict:
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(times) * 1000,
        "op_ms_p90": statistics.quantiles(times, n=10)[8] * 1000,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    program = import_program()
    OUT.mkdir(parents=True, exist_ok=True)
    setup_samples = measure_setup(args.workload, args.seed)
    setup_scaled = [wall * factor for wall, factor in setup_samples]
    workload = WORKLOADS[args.workload](program, args.seed)

    tracer = make_tracer(program) if args.trace else None
    caches = CacheDelta(program) if args.trace else None
    got = run_rounds(workload, args.seconds, tracer, caches)
    peak_rss_kb = (
        workload.max_child_rss_kb if isinstance(workload, Cli)
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    )
    caught, misjudged = self_test(workload)
    if misjudged:
        print(f"error: output checks misjudged {misjudged}", file=sys.stderr)
        return 2

    if tracer is None:
        measured = op_metrics(got.times("untraced"))
        metrics = {
            "ops_per_s": (measured["ops_per_s"], "1/s"),
            "op_ms_p50": (measured["op_ms_p50"], "ms"),
            "op_ms_p90": (measured["op_ms_p90"], "ms"),
            "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
            "setup_s": (statistics.median(setup_scaled), "s"),
        }
    else:
        rates = {kind: statistics.median(round_rates(got, kind)) for kind in ("untraced", "traced")}
        probe, probe_factors = trace_probe(program, workload, tracer, caches, len(got.wall))
        # Op ids: the rounds' ops in run order, then the probe's.
        factors = got.factor + probe_factors
        rounds = got.round_of + [-1] * len(probe_factors)
        traced_ops = got.kinds.count("traced") + len(probe_factors)
        metrics = layer_metrics(tracer, factors, rounds, traced_ops, caches, probe, rates)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.csv.gz")

    result = {
        "correct": got.wrong == 0,
        "attempted": got.attempted,
        "failed": got.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = dict(
        result,
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        errors=got.errors[:50], self_test_caught=caught,
        op_samples=dict(Counter(got.kinds)),
        rounds=len(set(got.round_of)),
        wall=op_metrics(got.times("untraced", scaled=False)),
        speed_factor_median=statistics.median(got.factor),
        setup_samples_s=setup_samples,
        inputs=input_summary(workload),
        ops=list(zip(got.round_of, got.pool_index, got.wall, got.factor)),
        python=sys.version.split()[0], nproc=os.cpu_count(),
    )
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    for line in got.errors[:10]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
