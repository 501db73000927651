"""inetkit benchmark: end-to-end latency of ``inet check``, ``run`` and ``fuzz``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deep_unary --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One client, one thread, one process: each op calls ``inetkit.cli.main`` in
process and the next op starts when it returns (a closed loop).  Every op's
exit code and stdout are compared with the value ``workloads.py`` computed
in closed form.  ``--trace 0`` reports the end-to-end metrics with nothing
wrapped; ``--trace 1`` alternates untraced rounds with traced ones and
reports the per-layer metrics.  The last stdout line is one JSON object.

Times are normalised by host speed (see ``hostspeed.py``): each op's wall
time is divided by the reference kernel's time around it and multiplied by
``hostspeed.NOMINAL_S``.  Raw wall times are printed in the report too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
KINDS = ("check", "run", "fuzz")
SETUP_REPS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

END_TO_END = {
    "setup_s": "s",
    **{f"{k}_ms_{q}": "ms" for k in KINDS for q in ("p50", "tail")},
    "peak_rss_mb": "MB",
}

# The split measured when the benchmark was defined: (workload, op kind) ->
# the span, or span-name prefix, expected to hold most of the op's self time.
EXPECTED_SPLIT = {
    ("deep_unary", "run"): "core.substitute",
    ("variadic_fanout", "check"): "rules.",
    ("variadic_fanout", "run"): "engine.normalize",
}


class SetupError(Exception):
    """The checkout holds no importable inetkit."""


# ---------------------------------------------------------------------------
# Running and checking one op
# ---------------------------------------------------------------------------

def load_inetkit():
    """Import ``inetkit.cli`` afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "inetkit" / "cli.py").is_file():
        raise SetupError(f"no inetkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "inetkit" or m.startswith("inetkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("inetkit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"inetkit imported from {cli.__file__}, not from {src}")
    return cli


def check_output(op: workloads.Op, code, stdout: str, stderr: str) -> str | None:
    """None if the op produced what the generator expects, else why not."""
    if code != op.exit_code:
        return f"exit {code}, expected {op.exit_code}; stderr {stderr[-300:]!r}"
    if stdout != op.stdout:
        return f"stdout {stdout[:200]!r}, expected {op.stdout[:200]!r}"
    for line in stderr.splitlines():
        if not line.startswith("warning: "):
            return f"unexpected stderr line {line[:200]!r}"
    return None


def run_op(main, op: workloads.Op, path: str) -> tuple[float, str | None]:
    """Run one op in process; wall seconds and the failure, if any."""
    out, err = io.StringIO(), io.StringIO()
    argv = [op.kind, path, *op.argv]
    code, crash = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash, RecursionError included, fails the op
            crash = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, crash or check_output(op, code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of ``n`` samples above
    it, but never below the median (a run too short for that reports fewer
    samples beyond; the report prints how many)."""
    return max(50, math.floor(100 * (n - TAIL_BEYOND) / n))


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def normalise(walls: list[float], refs: list[float]) -> list[float]:
    """Host-normalised seconds: ``refs[i]`` and ``refs[i + 1]`` are the reference
    kernel's times right before and right after ``walls[i]``."""
    assert len(refs) == len(walls) + 1
    return [w * 2 * hostspeed.NOMINAL_S / (refs[i] + refs[i + 1]) for i, w in enumerate(walls)]


# ---------------------------------------------------------------------------
# The measurement
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.main = None
        self.ops: list[workloads.Op] = []
        self.mix = ""
        self.attempted = 0
        self.failures: list[str] = []
        self.restored = True  # every traced round put back every wrapped name
        # One entry per timed op, in order: (kind, wall s, tracer or None).
        self.samples: list[tuple[str, float, tracing.Tracer | None]] = []
        # Reference kernel seconds before each timed op, then one after the last.
        self.refs: list[float] = []

    def setup_once(self) -> float:
        """Import inetkit, generate and write the inputs, run one warm-up round.

        Returns host-normalised seconds; each segment is normalised by the
        reference timings on either side of it, which are not counted.
        """
        refs = [hostspeed.measure()]
        start = time.perf_counter()
        self.main = load_inetkit().main
        work = workloads.build(self.workload, self.seed)
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        for name, text in work.files.items():
            (self.workdir / name).write_text(text, encoding="utf-8")
        self.ops, self.mix = work.ops, work.mix
        walls = [time.perf_counter() - start]
        for op in self.ops:
            gc.collect()
            refs.append(hostspeed.measure())
            wall, problem = run_op(self.main, op, str(self.workdir / op.program))
            self.record(op, problem)
            walls.append(wall)
        refs.append(hostspeed.measure())
        return sum(normalise(walls, refs))

    def setup(self) -> list[float]:
        """Host-normalised set-up seconds, once per repetition."""
        return [self.setup_once() for _ in range(SETUP_REPS)]

    def record(self, op: workloads.Op, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{op.kind} {op.program}: {problem}")

    def round(self, tracer: tracing.Tracer | None) -> None:
        for op_id, op in enumerate(self.ops):
            path = str(self.workdir / op.program)
            gc.collect()
            self.refs.append(hostspeed.measure())
            if tracer is not None:
                tracer.op_id = op_id
                root = tracer.open(tracing.ROOT)
            wall, problem = run_op(self.main, op, path)
            if tracer is not None:
                tracer.close(root)
            self.record(op, problem)
            self.samples.append((op.kind, wall, tracer))

    def measure(self, seconds: float, trace: bool) -> list[tracing.Tracer]:
        """Whole rounds until ``seconds`` have passed; every other one traced if asked."""
        tracers = []
        deadline = time.perf_counter() + seconds
        index = 0
        while index < (2 if trace else 1) or time.perf_counter() < deadline:
            tracer = None
            if trace and index % 2 == 1:
                tracer = tracing.Tracer()
                tracer.install()
                tracers.append(tracer)
            try:
                self.round(tracer)
            finally:
                if tracer is not None and not tracer.restore():
                    self.restored = False
            index += 1
        gc.collect()
        self.refs.append(hostspeed.measure())
        return tracers

    def normalised(self) -> list[float]:
        return normalise([s[1] for s in self.samples], self.refs)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "inetkit").glob("*.py")))


def end_to_end(bench: Bench, setups: list[float], report: list[str]) -> dict[str, float]:
    norm = bench.normalised()
    metrics = {"setup_s": statistics.median(setups)}
    report.append("setup_s reps: " + ", ".join(f"{s:.4f}" for s in setups))
    report.append(f"{'op':6} {'n':>5} {'p50_ms':>10} {'tail_ms':>10} {'tail_pct':>8} "
                  f"{'beyond':>6} {'raw_p50_ms':>10} {'raw_tail_ms':>11}")
    for kind in KINDS:
        picked = [i for i, s in enumerate(bench.samples) if s[0] == kind and s[2] is None]
        values = [norm[i] * 1e3 for i in picked]
        raw = [bench.samples[i][1] * 1e3 for i in picked]
        p = tail_percentile(len(values))
        beyond = len(values) - math.ceil(p * len(values) / 100)
        metrics[f"{kind}_ms_p50"] = statistics.median(values)
        metrics[f"{kind}_ms_tail"] = percentile(values, p)
        report.append(
            f"{kind:6} {len(values):5d} {metrics[f'{kind}_ms_p50']:10.3f} "
            f"{metrics[f'{kind}_ms_tail']:10.3f} {'p' + str(p):>8} {beyond:6d} "
            f"{statistics.median(raw):10.3f} {percentile(raw, p):11.3f}"
        )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factors = [(a + b) / 2 / hostspeed.NOMINAL_S for a, b in zip(bench.refs, bench.refs[1:])]
    report.append(f"host factor (reference kernel / {hostspeed.NOMINAL_S * 1e3:.2f} ms): "
                  f"median {statistics.median(factors):.3f}, "
                  f"min {min(factors):.3f}, max {max(factors):.3f}")
    return metrics


def per_layer(bench: Bench, tracers: list[tracing.Tracer], report: list[str]) -> tuple[dict, bool]:
    """Per-layer metrics from the traced rounds; False if a trace check failed."""
    norm = bench.normalised()
    ok = True
    by_tracer: dict[int, list[int]] = {}
    for i, s in enumerate(bench.samples):
        if s[2] is not None:
            by_tracer.setdefault(id(s[2]), []).append(i)

    round_self: list[dict[str, float]] = []  # per round: metric -> normalised ms
    round_us_per_step: list[float] = []
    kind_self: dict[str, dict[str, float]] = {k: {} for k in KINDS}
    kind_total: dict[str, float] = dict.fromkeys(KINDS, 0.0)
    gap_ns = 0
    for tracer in tracers:
        spans = tracer.spans
        starts = {}
        for index, span in enumerate(spans):
            starts.setdefault(span[4], index)
        bounds = sorted(starts.values()) + [len(spans)]
        totals: dict[str, float] = {}
        normalize_ms = 0.0
        for (first, last), i in zip(zip(bounds, bounds[1:]), by_tracer[id(tracer)]):
            kind = bench.samples[i][0]
            scale = norm[i] / bench.samples[i][1]  # wall -> normalised
            own = tracing.self_times(spans, first, last)
            root_ns = spans[first][2] - spans[first][1]
            gap_ns = max(gap_ns, abs(root_ns - sum(own.values())))
            if tracing.nesting_errors(spans, first, last):
                ok = False
            for name, ns in own.items():
                ms = ns * 1e-6 * scale
                metric = tracing.SELF_TIME_METRIC[name]
                totals[metric] = totals.get(metric, 0.0) + ms
                kind_self[kind][name] = kind_self[kind].get(name, 0.0) + ms
            kind_total[kind] += root_ns * 1e-6 * scale
            normalize_ms += tracing.inclusive_times(spans, first, last, "engine.normalize") * 1e-6 * scale
        round_self.append(totals)
        steps = tracer.counts.get("engine.steps", 0)
        if steps:
            round_us_per_step.append(normalize_ms * 1e3 / steps)

    if not bench.restored:
        ok = False
        report.append("FAIL: a wrapped name was not restored after a traced round")
    metrics: dict[str, float] = {}
    for metric in tracing.SELF_TIME_METRIC.values():
        metrics[metric] = statistics.median(r.get(metric, 0.0) for r in round_self)
    if round_us_per_step:
        metrics["engine.us_per_step"] = statistics.median(round_us_per_step)

    counts = [dict(t.counts) for t in tracers]
    if any(c != counts[0] for c in counts):
        ok = False
        report.append("FAIL: work counts differ between traced rounds of one seed")
    first = counts[0]
    for metric in tracing.COUNT_SOURCES:
        if metric == "core.term_walks":
            steps = first.get("engine.steps", 0)
            metrics[metric] = first.get(metric, 0) / steps if steps else 0.0
        else:
            metrics[metric] = float(first.get(metric, 0))

    untraced = [norm[i] for i, s in enumerate(bench.samples) if s[0] == "run" and s[2] is None]
    traced = [norm[i] for i, s in enumerate(bench.samples) if s[0] == "run" and s[2] is not None]
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    metrics["src_lines"] = float(src_lines())

    for metric in list(metrics):
        if tracers[0].absent(metric):
            report.append(f"absent: {metric} (its wrapped name is gone)")
            del metrics[metric]

    report.append(f"traced rounds: {len(tracers)}; spans in first round: {len(tracers[0].spans)}")
    report.append(f"self times add up to op time: largest gap {gap_ns} ns"
                  + ("" if ok else "; FAIL: spans nest wrongly"))
    report.append(f"tracing overhead: traced/untraced run_ms_p50 = {metrics['trace.overhead']:.3f}")
    report.append("self time per op kind, share of traced op time:")
    for kind in KINDS:
        total = kind_total[kind]
        if not total:
            continue
        shares = sorted(kind_self[kind].items(), key=lambda kv: -kv[1])
        report.append(f"  {kind}: " + ", ".join(f"{n} {v / total:.1%}" for n, v in shares if v / total >= 0.005))
        expected = EXPECTED_SPLIT.get((bench.workload, kind))
        if expected is not None:
            if expected.endswith("."):
                share = sum(v for n, v in kind_self[kind].items() if n.startswith(expected)) / total
                holds = share > 0.5
                what = f"{expected}* hold {share:.1%} of {kind}"
            else:
                top = shares[0][0]
                holds = top == expected
                what = f"largest self time in {kind} is {top}, expected {expected}"
            report.append(f"  expected split {'holds' if holds else 'DIFFERS'}: {what}")
    return metrics, ok


def write_spans(tracers: list[tracing.Tracer], workload: str, seed: int) -> Path:
    """Every span of the run, one JSON list per line: round, op, name, start, end, parent."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for round_index, tracer in enumerate(tracers):
            for name, start, end, parent, op_id in tracer.spans:
                handle.write(json.dumps([round_index, op_id, name, start, end, parent]) + "\n")
    return path


def bench_main(args) -> int:
    workdir = OUT_DIR / f"inputs-{args.workload}-seed{args.seed}"
    bench = Bench(args.workload, args.seed, workdir)
    report = [f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}"]
    try:
        setups = bench.setup()
        tracers = bench.measure(args.seconds, trace=bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.append(f"op mix per round: {bench.mix}")
    report.append(f"src_lines {src_lines()}")
    correct = True
    if args.trace:
        metrics, correct = per_layer(bench, tracers, report)
        report.append(f"spans written to {write_spans(tracers, args.workload, args.seed).relative_to(ROOT)}")
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(bench, setups, report)
        units = END_TO_END
    failed = len(bench.failures)
    report.append(f"failed_ratio {failed}/{bench.attempted} = {failed / bench.attempted:.6f}")
    report.extend(f"FAILED: {f}" for f in bench.failures[:5])
    for name, value in metrics.items():
        report.append(f"metric {name} {value:.6g} {units[name]}")
    print("\n".join(report))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


PER_LAYER_UNITS = {
    **{m: "ms" for m in tracing.SELF_TIME_METRIC.values()},
    "surface.source_bytes": "bytes",
    "rules.expanded_rules": "count",
    "rules.generic_pairs": "count",
    "rules.lookup_calls": "count",
    "core.substitute_calls": "count",
    "core.canonicalize_calls": "count",
    "engine.probe_runs": "count",
    "engine.steps": "count",
    "engine.steps.interaction": "count",
    "engine.steps.communication": "count",
    "engine.steps.substitution": "count",
    "engine.steps.collect": "count",
    "engine.interactions.ordinary": "count",
    "engine.interactions.generic": "count",
    "engine.fresh_names": "count",
    "engine.peak_equations": "count",
    "core.term_walks": "walks/step",
    "engine.us_per_step": "us",
    "trace.overhead": "x",
    "src_lines": "lines",
}


# ---------------------------------------------------------------------------
# Smoke mode
# ---------------------------------------------------------------------------

def smoke() -> int:
    """Run every workload briefly, traced and untraced, and check each report
    against BENCHMARK.json: every named metric present with its unit, every
    op verified."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for entry in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            problems = []
            if proc.returncode != 0 or not lines:
                problems.append(f"exit {proc.returncode}: {proc.stderr[-500:]}")
            else:
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                                    f"failed={result['failed']}")
                for metric in declared:
                    got = result["metrics"].get(metric["name"])
                    if got is None or got.get("unit") != metric["unit"]:
                        problems.append(f"metric {metric['name']}: got {got}")
                extra = set(result["metrics"]) - {m["name"] for m in declared}
                if extra:
                    problems.append(f"undeclared metrics {sorted(extra)}")
            ok = ok and not problems
            print(f"{'PASS' if not problems else 'FAIL'} {entry['name']} trace={trace}"
                  + "".join(f"\n  {p}" for p in problems))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the reports")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return bench_main(args)


if __name__ == "__main__":
    sys.exit(main())
