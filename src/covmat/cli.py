"""Command-line front end.

Subcommands:
  analyze  run every applicable criterion and bound on one state
  sweep    CSV of bounds/criteria along a two-state mixing family
  bench    detection-rate table over a seeded random ensemble

Output goes to stdout, diagnostics to stderr.  Exit codes: 0 ran,
2 at least one ENTANGLED verdict (analyze only), 1 error, usage errors
included; every error is reported as one `error:` line.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from functools import cache, partial

import numpy as np

from . import concurrence as conc
from . import criteria as crit
from .covariance import StateSummary
from .criteria import CriterionVerdict, MultipartiteReport
from .linalg import DensityMatrix
from .states import build_state, load_state, mix, parse_dims, random_pure, random_separable

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ENTANGLED = 2


@dataclasses.dataclass
class AnalysisReport:
    """Everything `analyze` computed for one state."""

    state_description: str
    dims: list[int]
    purities: list[float]
    verdicts: list[CriterionVerdict]
    multipartite: MultipartiteReport | None
    bounds: conc.ConcurrenceBounds | None
    timing_ms: dict[str, float]

    def any_entangled(self) -> bool:
        found = any(v.conclusion == crit.ENTANGLED for v in self.verdicts)
        if self.multipartite is not None:
            for pair in self.multipartite.pair_verdicts.values():
                found = found or any(v.conclusion == crit.ENTANGLED for v in pair.values())
        return found

    def to_dict(self) -> dict:
        """JSON-ready form; the pair (i, j) is keyed "i,j"."""
        d = dataclasses.asdict(self)
        if d["multipartite"] is not None:
            pairs = d["multipartite"]["pair_verdicts"]
            d["multipartite"]["pair_verdicts"] = {f"{i},{j}": v for (i, j), v in pairs.items()}
        return d


def fmt(x: float) -> str:
    """Locale-independent, 12 significant digits."""
    return f"{x:.12g}"


def _bipartite_verdicts(summary: StateSummary, tol: float) -> list[CriterionVerdict]:
    """The four bipartite criteria, in the order kf, hs, ppt, ccnr."""
    return [fn(summary, tol) for fn in (crit.kf_criterion, crit.hs_criterion,
                                        crit.ppt_criterion, crit.ccnr_criterion)]


def _timed(timing: dict[str, float], stage: str, fn, *args):
    """fn(*args), with its wall time in ms recorded as timing[stage]."""
    t0 = time.perf_counter()
    result = fn(*args)
    timing[stage] = (time.perf_counter() - t0) * 1000
    return result


def analyze_state(rho: DensityMatrix, description: str, tol: float,
                  timing: dict[str, float] | None = None) -> AnalysisReport:
    """The report on `rho`; its stage times are added to `timing`."""
    timing = {} if timing is None else timing
    summary = _timed(timing, "purities", StateSummary, rho)
    verdicts, multi, bounds = [], None, None
    if rho.n_parties == 2:
        verdicts = _timed(timing, "criteria", _bipartite_verdicts, summary, tol)
        bounds = _timed(timing, "bounds", conc.all_bounds, summary)
    else:
        multi = _timed(timing, "criteria", crit.multipartite_full_sep, summary, tol)
    return AnalysisReport(state_description=description, dims=list(rho.dims),
                          purities=summary.purities, verdicts=verdicts, multipartite=multi,
                          bounds=bounds, timing_ms=timing)


def _print_text_report(rep: AnalysisReport, out) -> None:
    print(f"state: {rep.state_description}", file=out)
    print(f"dims:  {'x'.join(str(d) for d in rep.dims)}", file=out)
    for k, p in enumerate(rep.purities):
        print(f"purity[{k}]: {fmt(p)}", file=out)
    if rep.verdicts:
        print("criteria:", file=out)
        for v in rep.verdicts:
            print(f"  {v.name:5s} lhs={fmt(v.lhs)} rhs={fmt(v.rhs)} "
                  f"margin={fmt(v.margin)} -> {v.conclusion}", file=out)
    if rep.multipartite is not None:
        m = rep.multipartite
        print("pairwise criteria:", file=out)
        for (i, j), pair in sorted(m.pair_verdicts.items()):
            for k, v in pair.items():
                print(f"  ({i},{j}) {k:2s} lhs={fmt(v.lhs)} rhs={fmt(v.rhs)} "
                      f"-> {v.conclusion}", file=out)
        print(f"full separability refuted: {m.full_sep_refuted}", file=out)
        print(f"fully entangled (two violations in one family): {m.fully_entangled}", file=out)
    if rep.bounds is not None:
        b = rep.bounds
        print("concurrence lower bounds:", file=out)
        print(f"  ccnr/ppt:  {fmt(b.bound_ccnr_ppt)}", file=out)
        print(f"  variance:  {fmt(b.bound_lur)}", file=out)
        print(f"  optimized: {fmt(b.bound_optimized)}", file=out)
        print(f"  best:      {fmt(b.best)}", file=out)


def cmd_analyze(args) -> int:
    timing: dict[str, float] = {}  # "load" includes validating the state
    if args.file is not None:
        rho, description = _timed(timing, "load", load_state, args.file), f"file:{args.file}"
    else:
        rho, description = _timed(timing, "load", build_state, args.state), args.state
    rep = analyze_state(rho, description, args.tolerance, timing)
    if args.format == "json":
        print(json.dumps(rep.to_dict()))
    else:
        _print_text_report(rep, sys.stdout)
    return EXIT_ENTANGLED if rep.any_entangled() else EXIT_OK


def _parse_grid(text: str) -> np.ndarray:
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise ValueError(f"bad grid {text!r}, expected start:stop:steps") from None
    if n < 1:
        raise ValueError("grid needs at least one point")
    return np.linspace(a, b, n)


SWEEP_COLUMNS = ("x", "bound10", "bound11", "bound12", "kf_margin",
                 "hs_margin", "ppt_min_eig", "ccnr_norm")

# `sweep` and `bench` summarise their states in chunks of as many D x D
# complex matrices as fit in 64 KiB: 50 states at 3x3, 64 at 2x4.  A chunk's
# summary holds a few stacks of that size at once, so the chunk size sets
# the memory a call adds, and the benchmark bounds peak RSS at 5%.
CHUNK_BYTES = 64 * 1024


def chunk_size(total_dim: int) -> int:
    """States per chunk for D x D complex matrices, D = `total_dim`."""
    return max(1, CHUNK_BYTES // (16 * total_dim * total_dim))


def sweep_rows(base: DensityMatrix, target: DensityMatrix, grid: np.ndarray):
    """One row per x; no column depends on the decision tolerance."""
    step = chunk_size(base.total_dim)
    for start in range(0, len(grid), step):
        xs = np.asarray(grid[start:start + step], dtype=float)
        s = StateSummary(mix(base, target, xs))
        columns = (xs, conc.bound_ccnr_ppt(s), conc.bound_lur(s), conc.bound_optimized(s),
                   np.subtract(*crit.kf_sides(s)), np.subtract(*crit.hs_sides(s)),
                   s.pt_spectrum[:, 0], s.realign_norm)
        yield from zip(*(c.tolist() for c in columns))


def cmd_sweep(args) -> int:
    base, target = build_state(args.base), build_state(args.target)
    grid = _parse_grid(args.grid)
    if base.dims != target.dims:
        raise ValueError(f"incompatible dims {base.dims} vs {target.dims}")
    rows = list(sweep_rows(base, target, grid))  # a failing row prints nothing
    print(",".join(SWEEP_COLUMNS))
    for row in rows:
        print(",".join(fmt(v) for v in row))
    return EXIT_OK


DEFAULT_TERMS = 5


def bench_counts(kind: str, dims, count: int, terms: int | None, seed: int,
                 tol: float = crit.DECISION_TOL) -> dict[str, int]:
    """Detection counts per criterion over a seeded ensemble.  `terms`
    applies to separable ensembles only (DEFAULT_TERMS when None)."""
    if len(dims) < 2:
        raise ValueError(f"bench needs at least two parties, got dims {dims}")
    if count < 1:
        raise ValueError(f"bench needs a positive --count, got {count}")
    if kind == "separable":
        terms = DEFAULT_TERMS if terms is None else terms
        generate = partial(random_separable, dims, terms)
    elif kind == "pure":
        if terms is not None:
            raise ValueError("--terms applies to separable ensembles only")
        generate = partial(random_pure, dims)
    else:
        raise ValueError(f"unknown ensemble kind {kind!r}")
    counts = {"kf": 0, "hs": 0, "ppt": 0, "ccnr": 0, "states": count}
    if len(dims) > 2:
        counts["pairwise"] = 0
    rng = np.random.default_rng(seed)
    step = chunk_size(int(np.prod(dims)))
    for start in range(0, count, step):
        subs = rng.integers(0, 2 ** 63, min(step, count - start)).tolist()
        for name, hits in crit.detections(StateSummary(generate(subs)), tol).items():
            counts[name] += int(hits.sum())
    return counts


def cmd_bench(args) -> int:
    dims = parse_dims(args.dims)
    counts = bench_counts(args.kind, dims, args.count, args.terms, args.seed,
                          args.tolerance)
    if args.format == "json":
        print(json.dumps(counts))
    else:
        for name, c in counts.items():
            print(f"{name}: {c}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so that `main` reports it like any other."""

    def error(self, message):
        raise ValueError(message)


def non_negative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also refuses NaN
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {text}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    p = _Parser(prog="covmat",
                description="Covariance-matrix entanglement criteria "
                            "and concurrence lower bounds")
    sub = p.add_subparsers(dest="command", required=True)

    def decision_options(sp):
        sp.add_argument("--tolerance", type=non_negative_float, default=crit.DECISION_TOL,
                        help="decision tolerance for strict inequalities")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    a = sub.add_parser("analyze", help="run criteria and bounds on one state")
    source = a.add_mutually_exclusive_group(required=True)
    source.add_argument("--state", help="state spec, e.g. bennett3x3, mes:3, isotropic:3:0.5")
    source.add_argument("--file", help="JSON state file")
    decision_options(a)
    a.set_defaults(fn=cmd_analyze)

    s = sub.add_parser("sweep", help="CSV sweep of (1-x)*base + x*target")
    s.add_argument("--base", default="bennett3x3")
    s.add_argument("--target", default="mes:3")
    s.add_argument("--grid", default="0:1:101", help="start:stop:steps")
    s.set_defaults(fn=cmd_sweep)

    b = sub.add_parser("bench", help="detection rates over a random ensemble")
    b.add_argument("--kind", choices=("separable", "pure"), default="separable")
    b.add_argument("--dims", default="3x3")
    b.add_argument("--count", type=int, default=1000)
    b.add_argument("--terms", type=int,
                   help=f"product terms per separable state (default {DEFAULT_TERMS})")
    b.add_argument("--seed", type=int, default=0)
    decision_options(b)
    b.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
