"""Benchmark of the finfun verifier: time from call to verdict.

Run from the root of a checkout:

    python3 bench/run.py --workload check-s4 --seed 1 --seconds 30 --trace 0

Every workload is a closed loop: one caller in one process makes the
next call only when the previous one has returned.  A pass goes once
over the workload's inputs; another pass starts while at least half of
it fits in ``--seconds``, and there is always at least one.  Each pass
builds fresh functor instances (from ``.ffn`` paths or from
``PresentationInstance(parse_presentation(...))``, never ``zoo:``
targets, whose instances are cached for the life of the process), so
every pass starts with cold caches.  See README.md in this directory for
the workloads, the metrics and the layer each metric watches.

Each pass also runs a fixed reference loop (reference.py) before every
input and at its end, and the end-to-end times are reported in ``ref``s,
units of that loop's time, so that drift in the host's speed cancels.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run, and the spans go to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.  The lines before it
are the same figures for people to read.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import inputs
import oracle
import reference
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 11       # set-ups per run; setup_s is their median
RANDOM_INPUTS = 2        # seeded random presentations per workload
QUERY_PAIRS = 3000       # support + epi_witness pairs per sweep-s6 pass
MIN_TRACED_PASSES = 2    # so that per-pass counts can be compared

SPAN_NAMES = {
    "cli.main", "cli.load_input", "presentation.parse_presentation",
    "tabulated.export_tabulated", "tabulated.load_tabulated",
    "theory.check_functor_laws", "theory.check_monomorphic",
    "theory.check_epimorphic", "theory.check_intersections",
    "theory.check_supports", "theory.require_monomorphic", "theory.support",
    "theory.degree", "theory.epi_witness",
}


# ---------------------------------------------------------------------------
# Loading the program


def load_program() -> SimpleNamespace:
    """Import finfun afresh, dropping any copy imported before."""
    for name in [m for m in sys.modules
                 if m == "finfun" or m.startswith("finfun.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        m: importlib.import_module(f"finfun.{m}")
        for m in ("finset", "presentation", "tabulated", "theory", "zoo",
                  "cli")})


def patches(fin: SimpleNamespace) -> list[tuple[object, str, str, bool]]:
    """(owner, attribute, reported name, is a generator) for every
    function the tracer wraps, at the place its callers look it up."""
    p, t, c = fin.presentation, fin.theory, fin.cli
    out = [
        (fin.finset.FiniteFunction, "__post_init__", "finset.FiniteFunction",
         False),
        (t, "enumerate_functions", "finset.enumerate_functions", True),
        (t, "enumerate_subsets", "finset.enumerate_subsets", True),
        (c, "parse_presentation", "presentation.parse_presentation", False),
        (p, "parse_presentation", "presentation.parse_presentation", False),
        (p, "evaluate_object", "presentation.evaluate_object", False),
        (p, "evaluate_morphism", "presentation.evaluate_morphism", False),
        (p.PresentationInstance, "map",
         "presentation.PresentationInstance.map", False),
        (c, "export_tabulated", "tabulated.export_tabulated", False),
        (c, "load_tabulated", "tabulated.load_tabulated", False),
        (fin.tabulated.TabulatedInstance, "map",
         "tabulated.TabulatedInstance.map", False),
        (c, "main", "cli.main", False),
        (c, "load_input", "cli.load_input", False),
    ]
    out += [(t, name, f"theory.{name}", False) for name in (
        "check_functor_laws", "check_monomorphic", "check_epimorphic",
        "check_intersections", "check_supports", "require_monomorphic",
        "support", "image_of_inclusion", "degree", "epi_witness")]
    return out


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Context:
    fin: SimpleNamespace
    cases: list[inputs.Case]
    seed: int
    workdir: Path
    tracer: Tracer | None = None
    passes: int = 0
    # label -> first tabulated report, compared later with the .ffn report
    tabulated_reports: dict[str, dict] = field(default_factory=dict)

    def begin(self, label: str) -> None:
        """Name the request that the spans recorded next belong to."""
        if self.tracer is not None:
            self.tracer.request = f"pass{self.passes}/{label}"


@dataclass
class Pass:
    elapsed: float = 0.0   # the whole pass, reference loops included
    # Reference loop k is followed by segment k of the program's work.
    references: list[float] = field(default_factory=list)
    segments: list[float] = field(default_factory=list)
    segment_start: float = 0.0
    # label -> (seconds to verdict, the segment it fell in)
    verdicts: dict[str, tuple[float, int]] = field(default_factory=dict)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    failed: int = 0
    export_s: float = 0.0
    export_bytes: int = 0
    output_bytes: int = 0
    queries: int = 0
    query_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    def calibrate(self) -> None:
        """End the current segment, if any, run the reference loop once
        and start the next segment."""
        if self.references:
            self.segments.append(perf_counter() - self.segment_start)
        self.references.append(reference.timed())
        self.segment_start = perf_counter()

    @property
    def wall(self) -> float:
        """The pass's seconds without its reference loops."""
        return sum(self.segments)

    def ref(self, k: int) -> float:
        """One ``ref`` for segment k: the median of the three reference
        loops before it and the three after it.  The median, because a
        loop that the host pauses reads long; nearby loops only, because
        the host's speed can change within a pass."""
        return statistics.median(self.references[max(0, k - 2):k + 4])

    def segment_times(self, in_refs: bool) -> list[float]:
        """Each segment's time, in seconds or in ``ref``s."""
        return [s / self.ref(k) if in_refs else s
                for k, s in enumerate(self.segments)]

    def verdict(self, case: inputs.Case, seconds: float) -> None:
        """Record a time to verdict.  Only zoo inputs, the same set for
        every seed, feed the verdict medians, so that the seed's random
        presentations cannot move which input sits at the median."""
        if case.zoo is not None:
            self.verdicts[case.label] = (seconds, len(self.references) - 1)

    def judge(self, case: inputs.Case,
              errors: Callable[[], list[str]]) -> None:
        """Count one attempted item and whatever the oracle finds wrong."""
        self.attempted += 1
        try:
            found = errors()
        except (ValueError, KeyError, TypeError, IndexError) as err:
            found = [f"{case.label}: unreadable answer: "
                     f"{type(err).__name__}: {err}"]
        if found:
            self.failed += 1
            self.errors.extend(found)


def run_cli(ctx: Context, argv: list[str],
            request: str) -> tuple[int, str, float]:
    """Call ``finfun.cli.main`` in process; return exit code, standard
    output and elapsed seconds."""
    ctx.begin(request)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.fin.cli.main(argv)
    elapsed = perf_counter() - start
    if code == 2:
        out.write(err.getvalue())
    return code, out.getvalue(), elapsed


def _modify(case: inputs.Case) -> list[str]:
    return ["--modify", case.modify] if case.modify else []


def check_pass(ctx: Context, res: Pass) -> None:
    for case in ctx.cases:
        res.calibrate()
        code, out, seconds = run_cli(
            ctx, ["check", str(case.path), "--max-size", "4", "--json",
                  "--seed", str(ctx.seed)] + _modify(case), case.label)
        res.verdict(case, seconds)
        res.output_bytes += len(out.encode())
        res.judge(case, lambda: oracle.report_errors(case, code,
                                                     json.loads(out), 4))


def tabulated_pass(ctx: Context, res: Pass) -> None:
    for case in ctx.cases:
        res.calibrate()
        table = ctx.workdir / f"{case.label}.json"
        code, out, seconds = run_cli(
            ctx, ["export", str(case.path), "--max-size", "4", "--out",
                  str(table)] + _modify(case), case.label)
        res.export_s += seconds
        res.output_bytes += len(out.encode())
        if code != 0:
            res.judge(case, lambda: [f"{case.label}: export exited {code}: "
                                     f"{out}"])
            continue
        res.export_bytes += table.stat().st_size
        code, out, seconds = run_cli(
            ctx, ["check", str(table), "--max-size", "4", "--json",
                  "--seed", str(ctx.seed)], case.label)
        res.verdict(case, seconds)
        res.output_bytes += len(out.encode())

        def errors() -> list[str]:
            report = json.loads(out)
            first = ctx.tabulated_reports.setdefault(case.label, report)
            return (oracle.report_errors(case, code, report, 4)
                    + oracle.same_report(case, report, first,
                                         "tabulated reports of two passes"))
        res.judge(case, errors)


def verify_tabulated(ctx: Context, res: Pass) -> None:
    """After timing: the presentation route must give the same report."""
    for case in ctx.cases:
        code, out, _ = run_cli(
            ctx, ["check", str(case.path), "--max-size", "4", "--json",
                  "--seed", str(ctx.seed)] + _modify(case), case.label)

        def errors() -> list[str]:
            reference = json.loads(out)
            tabulated = ctx.tabulated_reports.get(case.label)
            if tabulated is None:
                return [f"{case.label}: no tabulated report to compare"]
            return (oracle.report_errors(case, code, reference, 4)
                    + oracle.same_report(case, tabulated, reference,
                                         "tabulated and presentation reports"))
        res.judge(case, errors)


def _sweep_instance(fin: SimpleNamespace, case: inputs.Case, seed: int):
    """A fresh instance, its checks without laws up to size 6, and its
    degree (None when degree refuses a non-monomorphic functor)."""
    theory = fin.theory
    g = fin.presentation.PresentationInstance(
        fin.presentation.parse_presentation(case.text))
    if case.modify:
        g = theory.modify(g, theory.ModificationKind(case.modify))
    reports = theory.run_standard_checks(g, 6, seed=seed, skip=("laws",))
    try:
        return g, reports, theory.degree(g, 6)
    except theory.MonomorphicityError:
        return g, reports, None


def _crashed(res: Pass, case: inputs.Case, err: Exception) -> None:
    res.judge(case, lambda: [f"{case.label}: {type(err).__name__}: {err}"])


def sweep_pass(ctx: Context, res: Pass) -> None:
    fin = ctx.fin
    theory = fin.theory
    well_behaved = []
    for case in ctx.cases:
        res.calibrate()
        ctx.begin(case.label)
        start = perf_counter()
        try:
            g, reports, result = _sweep_instance(fin, case, ctx.seed)
        except Exception as err:  # a crash is a wrong answer; keep going
            _crashed(res, case, err)
            continue
        res.verdict(case, perf_counter() - start)
        value, exact = (None, False) if result is None else (result.value,
                                                             result.exact)
        checks = [{"name": r.name, "verdict": "pass" if r.passed else "fail",
                   "counterexamples": list(r.counterexamples)}
                  for r in reports]
        passed = {c["name"] for c in checks if c["verdict"] == "pass"}
        res.judge(case, lambda: oracle.verdict_errors(case, checks,
                                                      oracle.CHECKS[1:])
                  + oracle.degree_errors(case, value, exact,
                                         "mono" in passed))
        if {"mono", "supports"} <= passed:
            well_behaved.append((case, g))

    # Warm queries on the instances just checked whose supports are well
    # defined; the stream is the same on every pass.
    res.calibrate()
    rng = random.Random(ctx.seed)
    FiniteFunction, FiniteSet = fin.finset.FiniteFunction, fin.finset.FiniteSet
    ctx.begin("queries")
    for _ in range(QUERY_PAIRS if well_behaved else 0):
        case, g = well_behaved[rng.randrange(len(well_behaved))]
        n = rng.randint(1, 6)
        b = rng.randrange(g.size(n))
        m = rng.randint(n, 6)
        table = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
        rng.shuffle(table)
        f = FiniteFunction(FiniteSet(m), FiniteSet(n), tuple(table))
        start = perf_counter()
        try:
            supp = theory.support(g, n, b)
            witness = theory.epi_witness(g, f, b)
        except Exception as err:  # a crash is a wrong answer; keep going
            _crashed(res, case, err)
            continue
        res.query_s += perf_counter() - start
        res.queries += 2

        def errors() -> list[str]:
            back = g.map(fin.finset.inclusion(supp.support)).table
            found = oracle.support_errors(case, g.elements(n)[b],
                                          supp.support.members,
                                          back[supp.witness] == b)
            if g.map(f).table[witness] != b:
                found.append(f"{case.label}: epi witness does not map to {b}")
            return found
        res.judge(case, errors)


@dataclass(frozen=True)
class Workload:
    size: int            # the set size random presentations are sized at
    budget: int          # most terms over `size` points per random input
    writes_files: bool   # hand the program .ffn paths rather than text
    run_pass: Callable[[Context, Pass], None]
    verify: Callable[[Context, Pass], None] | None = None


WORKLOADS = {
    "check-s4": Workload(size=4, budget=24, writes_files=True,
                         run_pass=check_pass),
    "tabulated-s4": Workload(size=4, budget=24, writes_files=True,
                             run_pass=tabulated_pass,
                             verify=verify_tabulated),
    # At size 6 a binary shape alone has 36 terms and costs as much as
    # power2, so random inputs keep to unary and nullary shapes there and
    # the seed moves the pass time little.
    "sweep-s6": Workload(size=6, budget=13, writes_files=False,
                         run_pass=sweep_pass),
}


def one_pass(ctx: Context, workload: Workload) -> Pass:
    gc.collect()
    ctx.passes += 1
    res = Pass()
    if ctx.tracer is not None:
        ctx.tracer.reset_counters()
    start = perf_counter()
    workload.run_pass(ctx, res)
    res.calibrate()
    res.elapsed = perf_counter() - start
    if ctx.tracer is not None:
        res.counters = _counters(ctx.tracer)
    return res


def passes_for(ctx: Context, workload: Workload, seconds: float,
               minimum: int) -> list[Pass]:
    """Make passes while at least half of another one fits in
    ``seconds``, and at least ``minimum`` of them."""
    done: list[Pass] = []
    start = perf_counter()
    while len(done) < minimum or (
            perf_counter() - start
            + statistics.median(p.elapsed for p in done) / 2 <= seconds):
        done.append(one_pass(ctx, workload))
    return done


# ---------------------------------------------------------------------------
# Metrics


def _counters(tracer: Tracer) -> dict[str, float]:
    """Every counter of the last pass under its metric name."""
    out: dict[str, float] = {}
    for suffix, table in (("count", tracer.counts), ("s", tracer.total),
                          ("self_s", tracer.self_time),
                          ("yielded", tracer.yielded)):
        for name, value in table.items():
            out[f"{name}.{suffix}"] = value
    return out


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    """Counts of one pass (all passes agree); times as medians."""
    merged = {}
    for key in traced[0].counters:
        values = [p.counters[key] for p in traced]
        exact = key.endswith((".count", ".yielded"))
        merged[key] = values[0] if exact else statistics.median(values)
    maps = merged["presentation.PresentationInstance.map.count"]
    misses = merged["presentation.evaluate_morphism.count"]
    merged["presentation.map_hit_ratio"] = 1 - misses / maps if maps else 0.0
    merged["tabulated.export_bytes"] = traced[0].export_bytes
    merged["cli.output_bytes"] = traced[0].output_bytes
    merged["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in untraced))
    return merged


def count_mismatches(snapshots: list[dict[str, float]]) -> list[str]:
    """Cold-cache guard: every pass must do exactly the same work."""
    return [f"{key} differs between passes: "
            f"{[s[key] for s in snapshots]}"
            for key in snapshots[0]
            if key.endswith((".count", ".yielded"))
            and len({s[key] for s in snapshots}) > 1]


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p75/p90/p99 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


# ---------------------------------------------------------------------------
# Runs


def set_up(workload: Workload, seed: int,
           scratch: Path) -> tuple[Context, float]:
    """Import the program and write the inputs, several times over;
    return the last set-up and the median time of one."""
    times = []
    for k in range(SETUP_REPEATS):
        start = perf_counter()
        fin = load_program()
        sources = {n: fin.zoo.zoo_source(n) for n in fin.zoo.zoo_names()}
        cases = inputs.make_cases(sources, seed, workload.size,
                                  workload.budget, RANDOM_INPUTS)
        if workload.writes_files:
            cases = inputs.write_cases(cases, scratch / f"setup{k}")
        times.append(perf_counter() - start)
    return Context(fin, cases, seed, scratch), statistics.median(times)


def traced_run(ctx: Context, workload: Workload, seconds: float,
               spans: Path) -> tuple[list[Pass], dict[str, float], list[str]]:
    """Alternate untraced and traced passes, so that drift in the
    machine's speed falls on both alike; return every pass, the per-layer
    metrics and any count that differed between traced passes."""
    tracer = Tracer(SPAN_NAMES)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = perf_counter()
    while len(traced) < MIN_TRACED_PASSES or (
            perf_counter() - start
            + statistics.median(p.elapsed for p in untraced + traced)
            <= seconds):
        untraced.append(one_pass(ctx, workload))
        for owner, attr, name, generator in patches(ctx.fin):
            tracer.patch(owner, attr, name, generator)
        ctx.tracer = tracer
        try:
            traced.append(one_pass(ctx, workload))
        finally:
            tracer.unpatch()
            ctx.tracer = None
    tracer.write_spans(spans)
    return (untraced + traced, per_layer(traced, untraced),
            count_mismatches([p.counters for p in traced]))


def end_to_end(done: list[Pass], setup_s: float) -> dict[str, float]:
    """The end-to-end metrics, taken before any checking after the passes,
    in seconds and in ``ref``s (see reference.py); the verdict medians are
    missing when no zoo input reached a verdict."""
    values = {
        "setup_s": setup_s,
        "wall_s": pass_time(done, in_refs=False),
        "wall_ref": pass_time(done, in_refs=True),
        "reference_s": statistics.median(statistics.median(p.references)
                                         for p in done),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if any(p.verdicts for p in done):
        values["verdict_p50_s"] = verdict_p50(done, in_refs=False)
        values["verdict_p50_ref"] = verdict_p50(done, in_refs=True)
    return values


def pass_time(done: list[Pass], in_refs: bool) -> float:
    """The time of one pass: the sum over its segments of each segment's
    median over the passes.  A pause of the host that lands on one input
    of one pass is dropped, where it would move that pass's total."""
    return sum(statistics.median(times) for times in
               zip(*(p.segment_times(in_refs) for p in done)))


def verdict_p50(done: list[Pass], in_refs: bool) -> float:
    """The median over the inputs of each input's median time to verdict
    over the passes.  Pooling every sample instead would put the median
    at the edge between two inputs' clusters of samples, on their most
    extreme values."""
    per_input: dict[str, list[float]] = {}
    for p in done:
        for label, (seconds, k) in p.verdicts.items():
            per_input.setdefault(label, []).append(
                seconds / p.ref(k) if in_refs else seconds)
    return statistics.median(statistics.median(v)
                             for v in per_input.values())


# ---------------------------------------------------------------------------
# Main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as err:
        print(f"cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    if not (SRC / "finfun" / "__init__.py").is_file():
        print(f"no finfun sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    errors = [f"oracle self-test missed: {m}" for m in oracle.self_test()]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ctx, setup_s = set_up(workload, args.seed, scratch)
        if args.trace:
            done, values, mismatches = traced_run(
                ctx, workload, args.seconds,
                OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            errors += mismatches
        else:
            done = passes_for(ctx, workload, args.seconds, 1)
            values = end_to_end(done, setup_s)
        if workload.verify is not None:
            checked = Pass()
            workload.verify(ctx, checked)
            done.append(checked)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    errors += [f"{spec['name']} is declared but not measured"
               for spec in wanted if spec["name"] not in values]
    errors += [e for p in done for e in p.errors]
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    timed = [p for p in done if p.wall]

    mode = (f"{len(timed) // 2} untraced + {len(timed) // 2} traced passes"
            if args.trace else f"{len(timed)} untraced passes")
    print(f"workload {args.workload}  seed {args.seed}  {mode}")
    for e in errors[:20]:
        print(f"  ERROR {e}")
    metrics = {spec["name"]: {"value": values[spec["name"]],
                              "unit": spec["unit"]}
               for spec in wanted if spec["name"] in values}
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        # The same times in seconds, which drift with the machine's speed.
        for name in ("wall_s", "verdict_p50_s", "reference_s"):
            if name in values:
                print(f"  {name:<44} {values[name]:>14.6g} s")
        verdicts = [v for p in timed for v, _ in p.verdicts.values()]
        high = high_percentile(verdicts)
        print(f"  {'verdict samples':<44} {len(verdicts):>14d}" + (
            f"   p{high[0]} {high[1]:.6g} s" if high else ""))
        # Figures of one workload only; the JSON line carries the metrics
        # that every workload has.
        if args.workload == "tabulated-s4":
            print(f"  {'export_s':<44} "
                  f"{statistics.median(p.export_s for p in timed):>14.6g} s")
        if args.workload == "sweep-s6" and all(p.query_s for p in timed):
            rate = statistics.median(p.queries / p.query_s for p in timed)
            print(f"  {'support_queries_per_s':<44} {rate:>14.6g} 1/s")
    print(f"  {'error_rate':<44} {failed / max(attempted, 1):>14.6g} "
          f"({failed} of {attempted})")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
