"""Benchmark for the coopetition package: seeded workloads, end to end.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload frontier --seed 1 --seconds 24 --trace 0

Each op is one CLI command. The in-process workloads (frontier, wide,
bounds) call ``coopetition.cli.main(argv)``; ``cli_cold`` starts
``python -m coopetition`` once per op. Load is a closed loop from one
client: an op starts when the previous one returns, with no threads and at
most one child process at a time. The documents come from ``generate.py``
with the given seed; the package only ever sees those files.

Host speed drifts on a shared machine, so a fixed reference
(``reference.py``) is measured just before every op, outside the op's
timing, and every op time is its wall time scaled to the reference speed by
the reference's time around that op. The benchmark pins itself and its
children to one CPU. The raw wall times are printed as well.
``setup_s`` is the program's set-up, package imports and warm-up, scaled
by a reference measured around it; the median of five set-ups, four of
them in fresh interpreters.

An untraced run goes on past ``--seconds``, for at most as long again,
until it holds 100 ops, so that ``op_p90_ms`` rests on at least 10 samples;
a run that still holds fewer reports ``"correct": false``.

After the timed loop every op's output is checked (``checks.py``); a
nonzero exit, an exception or a wrong report counts as a failed op.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time on the same ops untraced and half traced (``spans.py``), prints the
per-layer metrics and the tracing overhead, and writes the spans to
``.bench_work/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import generate
import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
FORMATS = ("json", "csv", "table")
SETUP_SAMPLES = 5
MIN_OPS = 100  # so that at least 10 samples lie beyond op_p90_ms
CHILD_TIMEOUT_S = 150

# Desk-scale warm-up document: the triangle of the README.
TRIANGLE = {
    "advertisers": [{"name": name, "value": "1"} for name in "ABCDE"],
    "ads": [["A", "B", "C"], ["A", "D"], ["B", "E"]],
}


@dataclass
class Op:
    argv: list[str]
    check: Callable[[dict], str | None]

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


def _write(directory: Path, name: str, doc: dict) -> str:
    path = directory / name
    path.write_text(json.dumps(doc))
    return str(path)


def _weights(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(1, 40), rng.choice((1, 2, 4))) for _ in range(count)]


def _van_der_corput(count: int) -> list[int]:
    """0..count-1 ordered so that every prefix spreads over the whole range."""
    bits = max(1, (count - 1).bit_length())
    keys = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(count)]
    return sorted(range(count), key=keys.__getitem__)


# Workloads ------------------------------------------------------------------


FRONTIER_POOL = 200


def frontier_ops(rng: random.Random, directory: Path) -> list[Op]:
    """Winners of 8-12 members, 2 rivals per member; polytope with unit
    weights on even ops and random positive weights on odd ones, each op on
    its own instance. The exact Fraction simplex dominates. Winners of 13-14
    members would make ops so slow that a run holds too few for op_p90_ms.

    Op time grows steeply with the winner's size, so the pool is five equal
    size groups in rotation: op_p50_ms then falls in the middle of the
    10-member group and op_p90_ms in the middle of the 12-member one, not in
    the gap between two groups, where it would jump from seed to seed."""
    ops = []
    for j in range(FRONTIER_POOL):
        doc = generate.rival_instance(rng, 8 + j % 5)
        path = _write(directory, f"frontier-{j}.json", doc)
        count = len(generate.winner_members(doc))
        weights = _weights(rng, count) if j % 2 else [Fraction(1)] * count
        argv = ["polytope", path, "--format", "json"]
        if j % 2:
            argv[2:2] = ["--weights", ",".join(map(str, weights))]
        ops.append(Op(argv, lambda flat, doc=doc, w=weights: checks.check_polytope(doc, w, flat)))
    return ops


WIDE_POOL = 68


def wide_ops(rng: random.Random, directory: Path) -> list[Op]:
    """Winners of 32-48 members, 2 rivals per member, n up to ~150:
    egalitarian lowering, VCG and verify. No LP and no vertex enumeration."""
    ops = []
    for j in range(WIDE_POOL):
        doc = generate.rival_instance(rng, 32 + j % 17)
        path = _write(directory, f"wide-{j}.json", doc)
        bids = {"bids": {k: str(v) for k, v in generate.equilibrium_bids(doc, rng).items()}}
        bids_path = _write(directory, f"wide-{j}-bids.json", bids)
        ops.append(Op(
            ["solve", path, "egalitarian", "--trace", "--format", "json"],
            lambda flat, doc=doc: checks.check_egalitarian(doc, flat, traced=True),
        ))
        ops.append(Op(
            ["solve", path, "vcg", "--format", "json"],
            lambda flat, doc=doc: checks.check_vcg(doc, flat),
        ))
        ops.append(Op(
            ["verify", path, bids_path, "--format", "json"],
            lambda flat, doc=doc, bids=bids: checks.check_verify(doc, bids, flat),
        ))
    return ops


BOUNDS_CANDIDATES = 1000
BOUNDS_COMBINATIONS = (200, 3500)
BOUNDS_PAIRS = 140


def bounds_ops(rng: random.Random, directory: Path) -> list[Op]:
    """The acceptance family (n <= 8, m <= 6): solve bounds and compare.

    Only instances whose vertex enumeration solves BOUNDS_COMBINATIONS
    constraint subsets are kept, roughly the family's 50th to 85th
    percentile: there enumeration is 80-95% of an op. The family's top
    (0.3-5.5 s per op) is left out because a run holds too few of those ops
    for a steady 90th percentile. The pool is stratified: the kept instances
    are sorted by `generate.enumeration_cost` and taken at 2 * BOUNDS_PAIRS
    evenly spaced quantiles. Neighbours in that order form a pair, one for
    `solve bounds` and one for `compare`, and the pairs run in van der
    Corput order, so every seed, and every prefix of a run, sees the same
    spread of sizes. Each op gets its own instance.
    """
    low, high = BOUNDS_COMBINATIONS
    candidates = [generate.bounds_instance(rng) for _ in range(BOUNDS_CANDIDATES)]
    kept = []
    for k, doc in enumerate(candidates):
        combinations, envy_free = generate.vertex_combinations(doc)
        if low <= combinations <= high:
            kept.append((generate.enumeration_cost(combinations, envy_free), k))
    kept.sort()
    size = 2 * BOUNDS_PAIRS
    pool = [candidates[kept[(2 * q + 1) * len(kept) // (2 * size)][1]] for q in range(size)]
    ops = []
    for pair in _van_der_corput(BOUNDS_PAIRS):
        for compare in (False, True):
            j = 2 * pair + compare
            path = _write(directory, f"bounds-{j}.json", pool[j])
            command = ["compare", path] if compare else ["solve", path, "bounds"]
            ops.append(Op(
                command + ["--format", "json"],
                lambda flat, doc=pool[j], compare=compare: checks.check_bounds(doc, flat, compare),
            ))
    return ops


SUBSIDY_STEP, SUBSIDY_MAX = Fraction(1, 2), Fraction(8)
ORACLE_EPSILON = Fraction(1, 8)


def cli_cold_ops(rng: random.Random, directory: Path) -> list[Op]:
    """One `python -m coopetition` per op, cycling every subcommand and all
    three formats on desk-scale documents (acceptance criteria 7 and 9)."""
    ops = []
    for j in range(6):
        doc = generate.bounds_instance(
            rng, max_n=5, max_m=4, value_pool=generate.QUARTER_VALUES
        )
        path = _write(directory, f"cold-{j}.json", doc)
        bids = {"bids": {k: str(v) for k, v in generate.equilibrium_bids(doc, rng).items()}}
        bids_path = _write(directory, f"cold-{j}-bids.json", bids)
        owned = generate.owned_instance(rng, entrant=j % 2 == 1)
        owned_path = _write(directory, f"cold-{j}-owned.json", owned)
        weights = _weights(rng, len(generate.winner_members(doc)))
        commands = [
            (["solve", path, "vcg"], lambda flat, doc=doc: checks.check_vcg(doc, flat)),
            (
                ["solve", path, "egalitarian", "--trace"],
                lambda flat, doc=doc: checks.check_egalitarian(doc, flat, traced=True),
            ),
            (
                ["solve", path, "bounds"],
                lambda flat, doc=doc: checks.check_bounds(doc, flat, compare=False),
            ),
            (
                ["verify", path, bids_path],
                lambda flat, doc=doc, bids=bids: checks.check_verify(doc, bids, flat),
            ),
            (
                ["compare", path],
                lambda flat, doc=doc: checks.check_bounds(doc, flat, compare=True),
            ),
            (
                ["polytope", path, "--weights", ",".join(map(str, weights))],
                lambda flat, doc=doc, w=weights: checks.check_polytope(doc, w, flat),
            ),
            (
                ["oracle", path, "--epsilon", str(ORACLE_EPSILON)],
                lambda flat, doc=doc: checks.check_oracle(doc, flat, ORACLE_EPSILON),
            ),
            (
                [
                    "contracts", owned_path, "--responder", "M",
                    "--subsidy-grid", f"{SUBSIDY_STEP}:{SUBSIDY_MAX}",
                ],
                lambda flat, doc=owned: checks.check_contracts(
                    doc, "M", SUBSIDY_STEP, SUBSIDY_MAX, flat
                ),
            ),
        ]
        for argv, check in commands:
            fmt = FORMATS[len(ops) % len(FORMATS)]
            ops.append(Op(argv + ["--format", fmt], check))
    return ops


WORKLOADS = {
    "frontier": frontier_ops,
    "wide": wide_ops,
    "bounds": bounds_ops,
    "cli_cold": cli_cold_ops,
}
IN_PROCESS = {"frontier", "wide", "bounds"}


def warmup_argvs(workload: str, directory: Path) -> list[list[str]]:
    """Each command of the workload once, on the triangle."""
    path = _write(directory, "triangle.json", TRIANGLE)
    bids = _write(directory, "triangle-bids.json", {"bids": {}})
    commands = {
        "frontier": [["polytope", path]],
        "wide": [["solve", path, "egalitarian", "--trace"], ["solve", path, "vcg"], ["verify", path, bids]],
        "bounds": [["solve", path, "bounds"], ["compare", path]],
        "cli_cold": [["solve", path, "vcg"]],
    }[workload]
    return [argv + ["--format", "json"] for argv in commands]


# Executing ops --------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def in_process(argv: list[str]) -> tuple[int, str, str]:
    from coopetition import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def cold(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "coopetition", *argv],
        capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


@dataclass
class Sample:
    op: int
    seconds: float
    reference_seconds: float
    code: int
    stdout: str
    stderr: str


def closed_loop(
    ops: list[Op], seconds: float, execute, min_ops: int,
    measure_reference: Callable[[], float],
) -> tuple[list[Sample], float]:
    """Ops back to back for `seconds`; past that, for at most as long again,
    until `min_ops` ops have run. The reference is measured, untimed by the
    op, just before each op."""
    samples = []
    start = time.perf_counter()
    deadline, cutoff = start + seconds, start + 2 * seconds
    while True:
        now = time.perf_counter()
        if now >= cutoff or (now >= deadline and len(samples) >= min_ops):
            break
        index = len(samples) % len(ops)
        reference_seconds = measure_reference()
        began = time.perf_counter()
        code, out, err = execute(index)
        samples.append(Sample(index, time.perf_counter() - began, reference_seconds, code, out, err))
    return samples, time.perf_counter() - start


def check_samples(ops: list[Op], samples: list[Sample]) -> list[str]:
    """One reason per failed sample; identical outputs are judged once."""
    verdicts: dict[tuple[int, str], str | None] = {}
    failures = []
    for sample in samples:
        if sample.code != 0:
            lines = sample.stderr.strip().splitlines() or [""]
            failures.append(f"op {sample.op}: exit {sample.code}: {lines[-1][:200]}")
            continue
        key = (sample.op, sample.stdout)
        if key not in verdicts:
            try:
                flat = checks.parse_report(sample.stdout, ops[sample.op].fmt)
                verdicts[key] = ops[sample.op].check(flat)
            except Exception as exc:  # a report the checker cannot read is wrong
                verdicts[key] = f"unreadable report: {type(exc).__name__}: {exc}"
        if verdicts[key] is not None:
            failures.append(f"op {sample.op} ({' '.join(ops[sample.op].argv[:2])}): {verdicts[key]}")
    return failures


# Set-up ---------------------------------------------------------------------


@dataclass
class Setup:
    ops: list[Op]
    seconds: float  # the program's part, at the reference speed
    generation_s: float
    imports: dict[str, float]


def setup(workload: str, seed: int, directory: Path) -> Setup:
    """Imports, document generation and warm-up; everything before timing.

    `seconds` is the program's part, the package imports and the warm-up,
    scaled by the child reference measured just before and just after.
    Document generation is the benchmark's own work, which no program change
    moves, and its file writes drift with the disk, so it is timed apart.
    """
    reference_before = reference.timed_child()
    imports = {}
    program = 0.0
    if workload in IN_PROCESS:
        import_began = time.perf_counter()
        import numpy  # noqa: F401  (timed apart: the package pulls it in)

        numpy_done = time.perf_counter()
        import coopetition.cli  # noqa: F401

        imported = time.perf_counter()
        imports["cli.numpy_import_ms"] = 1000 * (numpy_done - import_began)
        imports["cli.import_ms"] = 1000 * (imported - numpy_done)
        program += imported - import_began
    began = time.perf_counter()
    ops = WORKLOADS[workload](random.Random(seed), directory)
    generation_s = time.perf_counter() - began
    execute = in_process if workload in IN_PROCESS else cold
    began = time.perf_counter()
    for argv in warmup_argvs(workload, directory):
        code, _, err = execute(argv)
        if code != 0:
            raise RuntimeError(f"warm-up {' '.join(argv[:2])} failed: {err.strip()}")
    program += time.perf_counter() - began
    reference_s = (reference_before + reference.timed_child()) / 2
    return Setup(ops, program * reference.CHILD_MS / (1000 * reference_s), generation_s, imports)


def probe_setup(workload: str, seed: int) -> dict:
    """Set up once in a fresh interpreter and report what it cost."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
         "--setup-probe", str(spawned)],
        capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_probe(workload: str, seed: int, spawned: float) -> None:
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = setup(workload, seed, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps({
        "setup_s": result.seconds,
        "generation_s": result.generation_s,
        "cli.interpreter_ms": 1000 * (started - spawned),
        **result.imports,
    }))


# Traced cli_cold ops --------------------------------------------------------


def traced_cold(argv: list[str], directory: Path) -> tuple[int, str, str, dict]:
    spans_path = directory / "child-spans.json"
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("traced_child.py")),
         str(spawned), str(spans_path), *argv],
        capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S,
    )
    record = json.loads(spans_path.read_text()) if spans_path.exists() else None
    spans_path.unlink(missing_ok=True)
    return proc.returncode, proc.stdout, proc.stderr, record


# Reporting ------------------------------------------------------------------


def scaled_ms(samples: list[Sample], nominal_ms: float) -> list[float]:
    """Op times in ms at the reference speed (`reference.scale_ms`)."""
    return reference.scale_ms(
        [s.seconds for s in samples], [s.reference_seconds for s in samples], nominal_ms
    )


def p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10)[8]


def peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "coopetition" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference.pin_to_one_cpu()
    if args.setup_probe is not None:
        run_probe(args.workload, args.seed, args.setup_probe)
        return 0

    probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(dir=WORK))
    try:
        return measure(args, probes, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def reference_for(workload: str) -> tuple[Callable[[], float], float]:
    """How to measure the host's speed for the workload's ops, and the
    reference's nominal ms."""
    if workload in IN_PROCESS:
        return reference.timed_kernel, reference.KERNEL_MS
    return reference.timed_child, reference.CHILD_MS


def measure(args, probes: list[dict], directory: Path) -> int:
    workload = args.workload
    prepared = setup(workload, args.seed, directory)
    ops = prepared.ops
    run = in_process if workload in IN_PROCESS else cold

    def execute(index):
        return run(ops[index].argv)

    if args.trace:
        return measure_traced(args, ops, execute, probes, directory)
    measure_reference, nominal_ms = reference_for(workload)
    samples, wall = closed_loop(ops, args.seconds, execute, MIN_OPS, measure_reference)
    rss = peak_rss_mb(with_children=workload not in IN_PROCESS)
    failures = check_samples(ops, samples)
    raw = [1000 * s.seconds for s in samples]
    times = scaled_ms(samples, nominal_ms)
    reference_ms = 1000 * statistics.median(s.reference_seconds for s in samples)
    print(f"workload {workload}, seed {args.seed}: {len(samples)} ops in {wall:.2f} s, "
          f"{len(failures)} failed (fail_ratio {len(failures) / len(samples):.4g})")
    print(f"  raw wall times: op_p50 {statistics.median(raw):.1f} ms, op_p90 {p90(raw):.1f} ms, "
          f"{1000 * len(raw) / sum(raw):.3f} ops/s; reference {reference_ms:.3f} ms "
          f"(nominal {nominal_ms} ms)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    enough = len(samples) >= MIN_OPS
    if not enough:
        print(f"  TOO FEW OPS: {len(samples)} in {wall:.2f} s, fewer than {MIN_OPS}, "
              f"so op_p90_ms rests on too few samples")
    setup_s = statistics.median([prepared.seconds] + [p["setup_s"] for p in probes])
    generation_s = statistics.median([prepared.generation_s] + [p["generation_s"] for p in probes])
    print(f"  document generation, apart from setup_s: {generation_s:.4f} s "
          f"(median of {SETUP_SAMPLES})")
    emit(not failures and enough, len(samples), len(failures), {
        "op_p50_ms": (statistics.median(times), "ms"),
        "op_p90_ms": (p90(times), "ms"),
        "ops_per_s": (1000 * len(times) / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    })
    return 0


def measure_traced(args, ops: list[Op], execute, probes: list[dict], directory: Path) -> int:
    """Half the time untraced, then the same ops traced; per-layer metrics."""
    workload = args.workload
    measure_reference, nominal_ms = reference_for(workload)
    untraced, _ = closed_loop(ops, args.seconds / 2, execute, 0, measure_reference)
    tracer = spans.Tracer()
    records: list[dict] = []
    if workload in IN_PROCESS:
        spans.install(tracer)

        def execute_traced(index):
            return tracer.run_op(index, lambda: execute(index))
    else:
        def execute_traced(index):
            code, out, err, record = traced_cold(ops[index].argv, directory)
            if record is not None:
                for span in record["spans"]:
                    span[spans.OP] = index
                records.append(record)
            return code, out, err

    traced, _ = closed_loop(ops, args.seconds / 2, execute_traced, 0, measure_reference)
    all_spans = tracer.finish()
    counts = tracer.counts
    for record in records:
        offset = len(all_spans)
        for span in record["spans"]:
            if span[spans.PARENT] is not None:
                span[spans.PARENT] += offset
            all_spans.append(span)
        counts.update(record["counts"])
    if records:  # paid by every op
        start_ms = {name: sum(r["start"][name] for r in records) for name in spans.START_METRICS}
    else:  # paid once per run, in set-up
        start_ms = {name: statistics.median(p[name] for p in probes) for name in spans.START_METRICS}
    metrics = spans.layer_metrics(all_spans, counts, start_ms)
    metrics["trace.overhead_ms"] = (
        statistics.median(scaled_ms(traced, nominal_ms))
        - statistics.median(scaled_ms(untraced, nominal_ms)),
        "ms",
    )
    out_path = WORK / f"spans-{workload}-{args.seed}.json"
    out_path.write_text(json.dumps({
        "fields": ["name", "start_s", "end_s", "parent", "op", "detail", "error"],
        "spans": all_spans,
    }))
    failures = check_samples(ops, untraced + traced)
    print(f"workload {workload}, seed {args.seed} (traced): {len(untraced)} untraced and "
          f"{len(traced)} traced ops, {len(all_spans)} spans written to {out_path}, "
          f"{len(failures)} failed")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    per_op = list(spans.TIME_METRICS) + (list(spans.START_METRICS) if records else [])
    ranked = sorted(per_op, key=lambda m: -metrics[m][0])
    print("  largest self times: " + ", ".join(f"{m} {metrics[m][0]:.0f}" for m in ranked[:4]))
    emit(not failures, len(untraced) + len(traced), len(failures), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
