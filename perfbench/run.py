"""covmat benchmark: CLI workloads run through `covmat.cli.main` in one process.

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark writes its seeded inputs
under .bench_build/perfbench/, runs whole rounds of the workload's CLI
calls until --seconds have passed, checks every output with the
independent checker (checker.py, no covmat imports) and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the first half of the
time runs untraced and the second half traced, and the metrics are the
per-layer ones plus the tracing overhead.  See README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# One BLAS thread whatever the environment says: the benchmark loop is
# single-threaded, and idle BLAS threads spinning on the second core make
# timings depend on what else the machine runs.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import checker  # noqa: E402
from spans import ALL_LAYERS, CLI, Tracer, metric_names  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_RUNS = 21
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); from covmat.cli import main; "
              "sys.exit(main(['analyze', '--state', 'bennett3x3', '--format', 'json']))")

# Fails today: the spec parser splits on the first '+'.  Intended reading:
# mix(0.5, mix(0.5, tiles, MES_3), isotropic(3, 0.2)).
NESTED_MIX = "mix:0.5:mix:0.5:bennett3x3+mes:3+isotropic:3:0.2"


@dataclass
class Op:
    argv: list[str]
    states: int
    check: Callable[[int, str], list[str]]


# ------------------------------------------------------------ inputs

def random_state(rng: np.random.Generator, dims, rank: int | None = None) -> np.ndarray:
    """G G^dag / tr with a complex Gaussian D x rank matrix G."""
    d = int(np.prod(dims))
    g = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def write_state(path: Path, dims, mat: np.ndarray) -> None:
    """The state file format `covmat analyze --file` reads, row by row."""
    with open(path, "w") as fh:
        fh.write('{"dims": %s, "matrix": [' % json.dumps(list(dims)))
        for r, row in enumerate(mat.tolist()):
            fh.write(("," if r else "") + json.dumps([[z.real, z.imag] for z in row]))
        fh.write("]}")


def analyze_op(argv, expected) -> Op:
    def check(rc, out):
        try:
            report = json.loads(out)
        except ValueError:
            return [f"{argv}: output is not JSON"]
        return [f"{argv[1:3]}: {e}" for e in checker.check_analysis(report, expected, rc)]

    return Op(argv + ["--format", "json"], 1, check)


def file_op(rng, work: Path, dims, rank=None) -> Op:
    mat = random_state(rng, dims, rank)
    path = work / f"state_{'x'.join(map(str, dims))}.json"
    write_state(path, dims, mat)
    return analyze_op(["analyze", "--file", str(path)], checker.expected_analysis(mat, dims))


def analyze_large(rng, work) -> list[Op]:
    return [file_op(rng, work, dims) for dims in ((8, 8), (10, 10), (12, 12), (6, 12))]


def analyze_small(rng, work) -> list[Op]:
    ops = [file_op(rng, work, dims, rank=2) for dims in ((2, 2), (3, 3), (2, 4), (3, 5))]
    ops += [file_op(rng, work, (2,) * n, rank=2) for n in range(3, 9)]
    ops.append(file_op(rng, work, (3, 3, 3), rank=2))
    tiles, mes3 = checker.tiles_state(), checker.mes(3)
    x_iso, x_mix = (f"{x:.6f}" for x in rng.uniform(0, 1, 2))
    specs = [
        ("bennett3x3", tiles),
        (f"isotropic:3:{x_iso}", checker.isotropic(3, float(x_iso))),
        (f"mix:{x_mix}:bennett3x3+mes:3", checker.mixture(tiles, mes3, float(x_mix))),
        (NESTED_MIX, checker.mixture(checker.mixture(tiles, mes3, 0.5),
                                     checker.isotropic(3, 0.2), 0.5)),
    ]
    ops += [analyze_op(["analyze", "--state", spec], checker.expected_analysis(mat, (3, 3)))
            for spec, mat in specs]
    return ops


def ensembles(rng, work) -> list[Op]:
    count = 1000
    ops = []
    for (kind, dims), seed in zip((("separable", "3x3"), ("pure", "2x4"), ("separable", "2x2x2")),
                                  rng.integers(0, 2 ** 31, 3)):
        parties = len(dims.split("x"))

        def check(rc, out, kind=kind, parties=parties):
            try:
                counts = json.loads(out)
            except ValueError:
                return ["bench output is not JSON"]
            errs = checker.check_bench(counts, kind, parties, count)
            if rc != 0:
                errs.append(f"bench exit code {rc}")
            return [f"bench {kind} {dims}: {e}" for e in errs]

        ops.append(Op(["bench", "--kind", kind, "--dims", dims, "--count", str(count),
                       "--seed", str(seed), "--format", "json"], count, check))
    return ops


def sweep(rng, work) -> list[Op]:
    """The paper's family from the tiles state to MES_3; it takes no seed."""
    points = 101
    expected = checker.expected_sweep(checker.tiles_state(), checker.mes(3), (3, 3), points)
    return [Op(["sweep", "--base", "bennett3x3", "--target", "mes:3", "--grid",
                f"0:1:{points}"], points,
               lambda rc, out: checker.check_sweep(out, expected) + (
                   [f"sweep exit code {rc}"] if rc != 0 else []))]


WORKLOADS = {"analyze-large": analyze_large, "analyze-small": analyze_small,
             "ensembles": ensembles, "sweep": sweep}


# ------------------------------------------------------------ measuring

def call(cli_main, argv) -> tuple[int | None, str, str, float]:
    """Run one CLI invocation; rc None means it raised instead of returning."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    except (Exception, SystemExit) as exc:
        rc = None
        err.write(repr(exc))
    elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue().strip(), elapsed


@dataclass
class Phase:
    latencies: list[list[float]]
    states: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: dict[str, str] = field(default_factory=dict)


def run_rounds(cli_main, ops: list[Op], seconds: float, problems: list[str],
               after_call: Callable[[], None] = lambda: None) -> Phase:
    """Whole rounds of `ops` until `seconds` have passed.  Exit code 2
    (some verdict ENTANGLED) is a success; any other non-zero code or an
    exception is a failed operation."""
    phase = Phase([[] for _ in ops])
    deadline = time.perf_counter() + seconds
    while True:
        for i, op in enumerate(ops):
            rc, out, err, elapsed = call(cli_main, op.argv)
            after_call()
            phase.attempted += 1
            phase.busy_s += elapsed
            if rc not in (0, 2):
                phase.failed += 1
                phase.failures.setdefault(" ".join(op.argv), err)
                continue
            try:
                problems += op.check(rc, out)
            except (LookupError, TypeError, AttributeError, ValueError) as exc:
                problems.append(f"{' '.join(op.argv)}: malformed output ({exc!r})")
            phase.latencies[i].append(elapsed)
            phase.states += op.states
        if time.perf_counter() >= deadline:
            return phase


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing covmat.cli and
    running one analyze."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode not in (0, 2):
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode().strip()}")
    return statistics.median(times[1:])               # the first run fills file caches


def end_to_end(phase: Phase, setup_s: float) -> dict:
    medians = [statistics.median(lat) for lat in phase.latencies if lat]
    pooled = [t for lat in phase.latencies for t in lat]
    return {
        "setup_s": (setup_s, "s"),
        "states_per_s": (phase.states / phase.busy_s, "states/s"),
        "call_ms_p50": (1000 * math.exp(statistics.fmean(map(math.log, medians))), "ms"),
        "call_ms_p90": (1000 * float(np.percentile(pooled, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(cli_main, ops, seconds, problems, work: Path) -> tuple[dict, list[Phase]]:
    plain = run_rounds(cli_main, ops, seconds / 2, problems)
    tracer = Tracer()
    tracer.install()
    last_round: list = []

    def keep_spans():
        last_round.append(tracer.fold())
        del last_round[:-len(ops)]

    traced = run_rounds(tracer.wrap(CLI, cli_main), ops, seconds / 2, problems, keep_spans)
    (work / "spans.json").write_text(json.dumps(last_round))
    metrics = {}
    for layer in ALL_LAYERS:
        ms_name, calls_name = metric_names(layer)
        metrics[ms_name] = (tracer.self_ms[layer] / traced.states, "ms")
        metrics[calls_name] = (tracer.calls[layer] / traced.states, "count")
    plain_rate = plain.states / plain.busy_s
    overhead = 100 * (plain_rate - traced.states / traced.busy_s) / plain_rate
    metrics["trace.overhead_pct"] = (overhead, "%")
    return metrics, [plain, traced]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    sys.path.insert(0, str(SRC))
    try:
        import covmat
        from covmat.cli import main as covmat_main
    except ImportError as exc:
        print(f"error: cannot import covmat from {SRC}: {exc}", file=sys.stderr)
        return 1
    if SRC not in Path(covmat.__file__).resolve().parents:
        print(f"error: covmat imported from {covmat.__file__}, not {SRC}", file=sys.stderr)
        return 1

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
    problems: list[str] = []
    run_rounds(covmat_main, ops, 0, problems)          # warm-up: one whole round
    if args.trace:
        metrics, phases = per_layer(covmat_main, ops, args.seconds, problems, work)
    else:
        setup_s = measure_setup()
        phase = run_rounds(covmat_main, ops, args.seconds, problems)
        metrics, phases = end_to_end(phase, setup_s), [phase]
    for argv, err in {k: v for ph in phases for k, v in ph.failures.items()}.items():
        print(f"failed: covmat {argv}: {err}", file=sys.stderr)
    for msg in problems[:20]:
        print(f"wrong output: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
