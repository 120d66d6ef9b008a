"""Benchmark of the artinstab library and CLI: one seeded workload per run.

    python3 perfbench/run.py --workload cli-scan --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run measures whole query cycles for at
least ``--seconds`` and prints the end-to-end metrics; with ``--trace 1`` it
runs each query of a fixed number of cycles untraced and then traced, and
prints the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter

import checks
from tracer import Tracer
from workloads import Deck

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-scan", "stab-deep", "orbit-large")
SETUP_REPEATS = 5
DIGEST_CYCLES = 2
HARD_STOP_S = 140.0
# Seconds one cycle takes untraced on a 2-core x86-64 VM at the commit that
# introduced the benchmark; sizes the fixed query list of a traced run.
NOMINAL_CYCLE_S = {"cli-scan": 0.85, "stab-deep": 5.5, "orbit-large": 2.3}
# The tail percentile of each workload: the highest of p50, p90, p99 with at
# least ten samples beyond it in a 40 s run at the commit that introduced
# the benchmark.  It is fixed, so a faster program that completes more
# queries in a run is not measured at a higher percentile.
TAIL_PERCENTILE = {"cli-scan": 90.0, "stab-deep": 50.0, "orbit-large": 90.0}
# Verdict digests of the first DIGEST_CYCLES cycles for seed 1, full size.
RECORDED_DIGESTS = {
    "cli-scan": "c1c0d181add914ce",
    "stab-deep": "6ff0e91e5d800d08",
    "orbit-large": "73c9a1b1400b0ba5",
}
# Host speed.  Where the benchmark was written (a 2-vCPU VM), pure-Python
# code runs up to 30 % faster or slower for tens of seconds at a time, which
# moves whole runs.  A fixed integer loop (``probe``) runs before every timed
# query and set-up; each time is scaled to the loop's nominal duration by the
# median of the PROBE_WINDOW probes around it.  The unscaled figures are
# printed on the line before the result.
PROBE_NOMINAL_S = 0.0022
PROBE_WINDOW = 7
SCALE_ROWS = (
    [f"stability.query_ms.x{k}" for k in (1, 2, 3, 5, 6, 7)]
    + [f"orbit.query_ms.n{n}" for n in (16, 24, 32, 40)]
    + [f"cli.query_ms.n{n}" for n in range(10, 17)]
)


class SetupError(Exception):
    pass


def library_source() -> Path:
    src = ROOT / "src"
    if not (src / "artinstab" / "__init__.py").is_file():
        raise SetupError(f"no library source at {src / 'artinstab'}")
    return src


def import_library():
    """Import artinstab afresh from the checkout's src/."""
    src = library_source()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [k for k in sys.modules if k == "artinstab" or k.startswith("artinstab.")]:
        del sys.modules[name]
    lib = importlib.import_module("artinstab")
    cli = importlib.import_module("artinstab.cli")
    if not Path(lib.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"artinstab imported from {lib.__file__}, not from {src}")
    return lib, cli


def setup(deck: Deck, texts: dict[str, str], workdir: Path):
    """Import the library, then build (library workloads) or write and
    parse (cli-scan) every workload graph.  Returns lib, cli, graphs, paths."""
    lib, cli = import_library()
    graphs, paths = {}, {}
    for key, named in deck.named.items():
        if deck.name == "cli-scan":
            path = workdir / f"{key}.json"
            path.write_text(texts[key])
            paths[key] = str(path)
            graphs[key] = lib.parse_graph(path.read_bytes())
        else:
            graphs[key] = lib.CoxeterGraph.build(named.names, named.relations())
    return lib, cli, graphs, paths


class Runner:
    def __init__(self, deck: Deck, lib, cli, graphs, paths, workdir: Path):
        self.deck, self.lib, self.cli = deck, lib, cli
        self.graphs, self.paths, self.workdir = graphs, paths, workdir
        self.tracer: Tracer | None = None

    def argv(self, q, X) -> list[str]:
        argv = [q.kind, "--graph", self.paths[q.graph], "--format", "json"]
        if q.kind != "classify":
            argv += ["--subset", ",".join(X)]
        if q.kind == "conjugate":
            argv += ["--target", ",".join(self.deck.named[q.graph].subset(q.target))]
        if q.expand:
            argv.append("--expand-words")
        return argv

    def fork_cli(self, argv: list[str]) -> tuple[float, int, str, str]:
        """Run cli.main(argv) in a forked child, as a fresh CLI process would
        see the library: nothing the child caches outlives the call."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        trace_path = self.workdir / "trace.json"
        sys.stdout.flush()
        sys.stderr.flush()
        t0 = perf_counter()
        pid = os.fork()
        if pid == 0:  # child
            code = 70
            try:
                with open(out_path, "w") as out, open(err_path, "w") as err:
                    sys.stdout, sys.stderr = out, err
                    if self.tracer is not None:
                        self.tracer.reset()
                    code = self.cli.main(argv)
                    out.flush()
                if self.tracer is not None:
                    with open(trace_path, "w") as fh:
                        json.dump(self.tracer.dump(), fh)
            except BaseException:
                with open(err_path, "a") as err:
                    err.write(traceback.format_exc())
                code = 70
            finally:
                os._exit(code if isinstance(code, int) else 70)
        _, status = os.waitpid(pid, 0)
        dt = perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        if self.tracer is not None and code in (0, 3):
            self.tracer.merge(json.loads(trace_path.read_text()))
        return dt, code, out_path.read_text(), err_path.read_text()

    def call(self, q):
        """Run one query; returns (latency s, outcome key, failure or None)."""
        g, named = self.graphs[q.graph], self.deck.named[q.graph]
        X = named.subset(q.X)
        lib, tr = self.lib, self.tracer
        if self.deck.name != "cli-scan":
            if q.kind == "decide":
                fn, args = lib.decide_with_applicability, (g, X)
            elif q.kind == "orbit":
                fn, args = lib.orbit, (g, X)
            else:
                fn, args = lib.conjugator, (g, X, named.subset(q.target))
            t0 = perf_counter()
            try:
                result = fn(*args) if tr is None else tr.span("query", fn, *args)
            except Exception as exc:
                return perf_counter() - t0, "error", f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tr is not None:
                return dt, None, None
            try:
                return dt, checks.library(lib, g, named, q, X, result), None
            except checks.Failed as exc:
                return dt, "failed", str(exc)
        if tr is None:
            dt, code, out, err = self.fork_cli(self.argv(q, X))
        else:
            dt, code, out, err = tr.span("query", self.fork_cli, self.argv(q, X))
        if code not in (0, 3):
            return dt, "error", f"exit {code}: {err.strip()[-300:]}"
        if tr is not None:
            return dt, None, None
        try:
            return dt, checks.cli(lib, g, named, q, X, code, out), None
        except (checks.Failed, KeyError, TypeError) as exc:
            return dt, "failed", f"{type(exc).__name__}: {exc}"


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    i = max(0, ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[i]


def probe() -> float:
    """Time a fixed integer loop: the host's present speed for Python code."""
    t0 = perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    return perf_counter() - t0


def host_scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled to nominal host speed by the probes around it."""
    h = PROBE_WINDOW // 2
    return [t * PROBE_NOMINAL_S / statistics.median(probes[max(0, i - h) : i + h + 1])
            for i, t in enumerate(times)]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def digest(outcomes: list[str]) -> str:
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


class Tally:
    def __init__(self):
        self.attempted = 0
        self.probes: list[float] = []
        self.failures: list[str] = []
        self.outcomes: list[str] = []
        self.latencies: list[tuple[object, float]] = []

    def record(self, q, dt, outcome, failure) -> None:
        self.attempted += 1
        self.latencies.append((q, dt))
        self.outcomes.append(outcome)
        if failure is not None:
            self.failures.append(f"query {q.qid} ({q.kind} on {q.graph}): {failure}")


def run_cycles(runner: Runner, cycles, tally: Tally, stop) -> list:
    done = []
    for n, cycle in enumerate(cycles):
        for q in cycle:
            tally.probes.append(probe())
            tally.record(q, *runner.call(q))
        done.append(cycle)
        if stop(n + 1):
            break
    return done


def endless(deck: Deck):
    while True:
        yield deck.next_cycle()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small graphs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    try:
        library_source()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench"
    workdir = outdir / f"work-{os.getpid()}"
    deck = Deck(args.workload, args.seed, args.size)
    texts = {key: named.file_text(deck.rng) for key, named in deck.named.items()}
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        setup_times, setup_probes = [], []
        for _ in range(SETUP_REPEATS):
            setup_probes.append(probe())
            t0 = perf_counter()
            lib, cli, graphs, paths = setup(deck, texts, workdir)
            setup_times.append(perf_counter() - t0)
        runner = Runner(deck, lib, cli, graphs, paths, workdir)
        if args.trace:
            result, notes = traced_run(runner, args, outdir)
        else:
            result, notes = timed_run(runner, args)
            setup_s = statistics.median(host_scaled(setup_times, setup_probes))
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
            notes.append(f"unscaled setup_s={statistics.median(setup_times):.6f}")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


def finish(args, deck: Deck, tally: Tally, cycles: int) -> tuple[dict, list[str]]:
    notes = [f"workload={args.workload} seed={args.seed} size={args.size} "
             f"trace={args.trace} cycles={cycles} queries={tally.attempted}"]
    first = tally.outcomes[: DIGEST_CYCLES * len(deck.pattern)]
    got = digest(first)
    want = RECORDED_DIGESTS.get(args.workload) if args.seed == 1 and args.size == "full" else None
    digest_ok = not want or got == want
    notes.append(f"digest(first {DIGEST_CYCLES} cycles)={got} recorded={want or '-'} "
                 f"match={digest_ok}")
    if not digest_ok:
        tally.failures.append(f"verdict digest {got} differs from the recorded {want}")
    for failure in tally.failures[:20]:
        notes.append(f"FAILED {failure}")
    failed = len(tally.failures)
    notes.append(f"failed_frac={failed / max(tally.attempted, 1):.6f} "
                 f"({failed} of {tally.attempted})")
    result = {"correct": failed == 0, "attempted": tally.attempted,
              "failed": failed, "metrics": {}}
    return result, notes


def timed_run(runner: Runner, args) -> tuple[dict, list[str]]:
    tally = Tally()
    start = perf_counter()

    def stop(n: int) -> bool:
        elapsed = perf_counter() - start
        return elapsed >= HARD_STOP_S or (elapsed >= args.seconds and n >= DIGEST_CYCLES)

    done = run_cycles(runner, endless(runner.deck), tally, stop)
    result, notes = finish(args, runner.deck, tally, len(done))
    raw = [dt for _, dt in tally.latencies]
    p = TAIL_PERCENTILE[args.workload]
    beyond = len(raw) - ceil(p / 100 * len(raw))
    notes.append(f"latency_tail_ms is p{p:g}: {beyond} of {len(raw)} samples beyond it"
                 + ("" if beyond >= 10 else " (fewer than 10)"))

    def timings(lat: list[float]) -> dict[str, float]:
        lat = sorted(lat)
        return {"queries_per_s": len(lat) / sum(lat),
                "latency_p50_ms": statistics.median(lat) * 1000.0,
                "latency_tail_ms": percentile(lat, p) * 1000.0}

    unscaled = timings(raw)
    notes.append("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items())
                 + f" probe_median_s={statistics.median(tally.probes):.6g}")
    scaled = timings(host_scaled(raw, tally.probes))
    result["metrics"] = {
        "queries_per_s": {"value": scaled["queries_per_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": scaled["latency_p50_ms"], "unit": "ms"},
        "latency_tail_ms": {"value": scaled["latency_tail_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    return result, notes


def traced_run(runner: Runner, args, outdir: Path) -> tuple[dict, list[str]]:
    """Each query runs untraced (and is checked), then traced right after,
    so both timings see the same machine state and their difference is the
    tracing overhead."""
    deck = runner.deck
    n_cycles = 1 if args.size == "tiny" else max(
        DIGEST_CYCLES, int(args.seconds * 0.4 / NOMINAL_CYCLE_S[args.workload]))
    cycles = [deck.next_cycle() for _ in range(n_cycles)]
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    for q in [q for cycle in cycles for q in cycle]:
        plain.record(q, *runner.call(q))
        tracer.install()
        runner.tracer = tracer
        tracer.qid = q.qid
        try:
            dt, _, failure = runner.call(q)
        finally:
            tracer.uninstall()
            runner.tracer = None
        traced.record(q, dt, None, failure)
    plain.failures += traced.failures
    result, notes = finish(args, deck, plain, len(cycles))
    outdir.mkdir(exist_ok=True)
    span_path = outdir / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write_spans(span_path)

    untraced_s = sum(dt for _, dt in plain.latencies)
    traced_s = sum(dt for _, dt in traced.latencies)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.queries"] = (plain.attempted, "count")
    # scale tags: x<|X|> on stability queries, n<rank> on cli and orbit queries
    layer = {"x": "stability", "n": "cli" if deck.name == "cli-scan" else "orbit"}
    by_scale: dict[str, list[float]] = {}
    for q, dt in plain.latencies:
        for tag in q.scale:
            by_scale.setdefault(f"{layer[tag[0]]}.query_ms.{tag}", []).append(dt)
    for row in SCALE_ROWS:
        values = by_scale.get(row)
        metrics[row] = (statistics.median(values) * 1000.0 if values else 0.0, "ms")
    metrics["deck.queries_per_graph"] = (plain.attempted / len({q.graph for q, _ in plain.latencies}), "count")
    metrics["src.lines"] = (src_lines(), "count")
    notes.append(f"trace: {len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}; "
                 f"overhead {traced_s - untraced_s:.3f} s on {untraced_s:.3f} s untraced")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, notes


if __name__ == "__main__":
    sys.exit(main())
