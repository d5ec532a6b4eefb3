"""tagforge benchmark: one seeded workload in a closed loop.

    python3 bench/run.py --workload long-sentences --seed 1 --seconds 25 --trace 0

One caller, one process, one thread: each op starts when the previous one
has returned.  Every op's output is checked against a reference that does
not come from tagforge (see oracles.py and golden/).  With ``--trace 0``
the last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` it has the per-layer metrics of a traced run.  Run it from
the root of a checkout; it imports tagforge from that checkout's src/.
See bench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5  # before the timed phase, and as many again after it
CLI_PROBE_REPEATS = 5
DEEP_CHAINS = (1500, 2000)
WALL_LIMIT_S = 150  # the loop stops here whatever --seconds says

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

CLI_VERB_NAMES = ("validate", "derive", "parse", "enumerate", "dep", "projective", "linearize", "export")
PER_LAYER = {
    "grammar_io.parse_grammar.calls": "count",
    "grammar_io.parse_grammar.busy_s": "s",
    "grammar_io.trees_loaded": "count",
    "chart.parse.calls": "count",
    "chart.parse.busy_s": "s",
    "chart.recognize.busy_s": "s",
    "chart.extract_s": "s",
    "chart.items": "count",
    "chart.items_max": "count",
    "chart.derivations": "count",
    "chart.cap_hits": "count",
    "derive.parse_script.busy_s": "s",
    "derive.run_derivation.calls": "count",
    "derive.run_derivation.busy_s": "s",
    "derive.steps": "count",
    "dependency.parse_dependency.busy_s": "s",
    "dependency.derivation_to_dependency.busy_s": "s",
    "dependency.is_projective.calls": "count",
    "dependency.is_projective.busy_s": "s",
    "dependency.nodes": "count",
    "dependency.nonprojective": "count",
    "linearize.parse_rules.busy_s": "s",
    "linearize.linearize.calls": "count",
    "linearize.linearize.busy_s": "s",
    "linearize.nodes": "count",
    "exports.busy_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{verb}.p50_ms": "ms" for verb in CLI_VERB_NAMES},
    "trace.overhead_frac": "ratio",
    "probe.deep.attempted": "count",
    "probe.deep.failed": "count",
}

# Runs in a fresh interpreter: import tagforge and parse the workload's
# files, timed from inside, so interpreter start-up is not counted.
SETUP_PROBE = """
import importlib, json, sys, time
src, module, files = json.loads(sys.stdin.read())
sys.path.insert(0, src)
start = time.perf_counter()
importlib.import_module(module)
import tagforge
for kind, text in files:
    (tagforge.parse_grammar if kind == "grammar" else tagforge.parse_rules)(text)
print(time.perf_counter() - start)
"""


def child_seconds(code: str, stdin: str = "") -> float:
    """Run ``code`` in a fresh interpreter; it prints one float."""
    from workloads import child_env

    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True,
        text=True, cwd=ROOT, env=child_env(), timeout=60, check=True,
    )
    return float(done.stdout)


def setup_seconds(workload) -> list[float]:
    payload = json.dumps([str(ROOT / "src"), workload.module, workload.files()])
    return [child_seconds(SETUP_PROBE, payload) for _ in range(SETUP_REPEATS)]


def cli_probe_ms() -> tuple[float, float]:
    """Bare interpreter start (wall) and `import tagforge.cli` (timed inside)."""
    interp = []
    for _ in range(CLI_PROBE_REPEATS):
        start = perf_counter()
        child_seconds("print(0)")
        interp.append(perf_counter() - start)
    code = "import time; s = time.perf_counter(); import tagforge.cli; print(time.perf_counter() - s)"
    imports = [child_seconds(code) for _ in range(CLI_PROBE_REPEATS)]
    return statistics.median(interp) * 1000, statistics.median(imports) * 1000


def deep_probe() -> tuple[int, list[str]]:
    """Chains deeper than the interpreter's recursion limit, through
    parse_dependency and linearize.  Not timed: it only counts failures."""
    import tagforge as tf
    from workloads import HERE

    rules = tf.parse_rules((HERE / "data" / "dep.syn").read_text(encoding="utf-8"))
    attempted, failures = 0, []
    for depth in DEEP_CHAINS:
        lexemes = [f"a{i % 16}" for i in range(depth)]
        text = "dep " + " { ".join(f"{w}:ATTR" if i else w for i, w in enumerate(lexemes))
        text += " }" * (depth - 1) + "\n"
        chain = tf.DependencyTree(
            root="p0",
            nodes={f"p{i}": tf.DepNode(f"p{i}", w) for i, w in enumerate(lexemes)},
            arcs=[(f"p{i - 1}", f"p{i}", "ATTR") for i in range(1, depth)],
        )
        checks = (
            ("parse_dependency", lambda: len(tf.parse_dependency(text).nodes) == depth),
            ("linearize", lambda: tf.linearize(chain, rules) == lexemes),
        )
        for label, check in checks:
            attempted += 1
            try:
                ok = check()
            except Exception as exc:  # the probe reports every failure as a count
                failures.append(f"{label}@{depth}: {type(exc).__name__}")
                continue
            if not ok:
                failures.append(f"{label}@{depth}: wrong output")
    return attempted, failures


class Sample:
    """Latencies and failures of the ops run under one context."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.deck_busy: list[float] = []  # of complete decks
        self.deck_size = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def run(self, op, ctx):
        # Collect the last op's cyclic garbage before the timer starts and
        # freeze the survivors, so collections stay short; the collector is
        # off inside the op (see measure).
        gc.collect()
        gc.freeze()
        start = perf_counter()
        try:
            out = ctx.call("op", op.run, ctx)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.latencies.append(perf_counter() - start)
            self.failures.append(f"{op.kind} {op.input[:60]!r}: {type(exc).__name__}: {exc}"[:300])
            return
        self.latencies.append(perf_counter() - start)
        try:
            got = op.digest(out)
        except Exception as exc:  # unreadable output is a wrong output
            got = exc
        if got != op.expected:
            self.failures.append(f"{op.kind} {op.input[:60]!r}: got {got!r}, expected {op.expected!r}"[:300])


def measure(workload, seconds: float, contexts, deadline: float) -> list[Sample]:
    """Run whole decks until the ops have been busy for ``seconds``.

    With several contexts (untraced and traced) every op runs once under
    each, in alternating order, so both see the same inputs and warm-up.
    Only op calls are timed; making the next deck's inputs and checking
    outputs are the benchmark's own work and are left out.
    """
    samples = [Sample() for _ in contexts]
    pairs = list(zip(samples, contexts))
    decks = 0
    # As timeit does, ops run with the cyclic garbage collector off.  Its
    # pauses depend on everything else alive in the process and on the
    # order of the ops, and they made op times swing by a third between
    # runs; tagforge's memory is freed by reference counting meanwhile.
    gc.disable()
    while (decks == 0 or sum(s.busy for s in samples) < seconds) and time.monotonic() < deadline:
        before = [s.busy for s in samples]
        ops = workload.deck(decks)
        for sample in samples:
            sample.deck_size = len(ops)
        for i, op in enumerate(ops):
            if time.monotonic() >= deadline:
                break
            for sample, ctx in pairs if i % 2 == 0 else reversed(pairs):
                sample.run(op, ctx)
        else:
            for sample, start in zip(samples, before):
                sample.deck_busy.append(sample.busy - start)
        decks += 1
    gc.enable()
    return samples


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    11th slowest op.  Returns (seconds, percentile, samples beyond)."""
    ordered = sorted(latencies)
    beyond = min(10, len(ordered) - 1)
    rank = len(ordered) - beyond  # 1-based
    return ordered[rank - 1], 100 * rank / len(ordered), beyond


def end_to_end(workload, sample: Sample, setup: float) -> dict[str, float]:
    ok = sample.attempted - len(sample.failures)
    # Every deck holds the same work, so the median deck gives the rate
    # without the bursts of a machine shared with other jobs.
    if sample.deck_busy:
        rate = sample.deck_size / statistics.median(sample.deck_busy)
    else:  # stopped by the wall limit inside the first deck
        rate = sample.attempted / sample.busy
    return {
        "setup_s": setup,
        "ops_per_s": ok / sample.attempted * rate,
        "op_p50_ms": statistics.median(sample.latencies) * 1000,
        "op_tail_ms": tail(sample.latencies)[0] * 1000,
        "peak_rss_mb": peak_rss_mb(children=workload.module == "tagforge.cli"),
        "ok_frac": ok / sample.attempted,
    }


def per_layer(tracer, plain: Sample, cli_ms, probe_attempted, probe_failed):
    rows = tracer.summary()

    def busy(name):
        return rows.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    # Overhead: every op ran once untraced and once traced; leave out the
    # recognize calls only the traced run makes.
    untraced_s = plain.busy
    traced_s = sum(tracer.op_busy(exclude="chart.recognize").values())
    verb_ms = {
        verb: statistics.median(
            end - start for name, start, end, _, _ in tracer.spans if name == f"cli.{verb}"
        ) * 1000
        if calls(f"cli.{verb}") else 0.0
        for verb in CLI_VERB_NAMES
    }
    return {
        "grammar_io.parse_grammar.calls": calls("grammar_io.parse_grammar"),
        "grammar_io.parse_grammar.busy_s": busy("grammar_io.parse_grammar"),
        "grammar_io.trees_loaded": tracer.counts["grammar_io.trees_loaded"],
        "chart.parse.calls": calls("chart.parse"),
        "chart.parse.busy_s": busy("chart.parse"),
        "chart.recognize.busy_s": busy("chart.recognize"),
        "chart.extract_s": busy("chart.parse") - busy("chart.recognize"),
        "chart.items": tracer.counts["chart.items"],
        "chart.items_max": tracer.peaks["chart.items_max"],
        "chart.derivations": tracer.counts["chart.derivations"],
        "chart.cap_hits": tracer.counts["chart.cap_hits"],
        "derive.parse_script.busy_s": busy("derive.parse_script"),
        "derive.run_derivation.calls": calls("derive.run_derivation"),
        "derive.run_derivation.busy_s": busy("derive.run_derivation"),
        "derive.steps": tracer.counts["derive.steps"],
        "dependency.parse_dependency.busy_s": busy("dependency.parse_dependency"),
        "dependency.derivation_to_dependency.busy_s": busy("dependency.derivation_to_dependency"),
        "dependency.is_projective.calls": calls("dependency.is_projective"),
        "dependency.is_projective.busy_s": busy("dependency.is_projective"),
        "dependency.nodes": tracer.counts["dependency.nodes"],
        "dependency.nonprojective": tracer.counts["dependency.nonprojective"],
        "linearize.parse_rules.busy_s": busy("linearize.parse_rules"),
        "linearize.linearize.calls": calls("linearize.linearize"),
        "linearize.linearize.busy_s": busy("linearize.linearize"),
        "linearize.nodes": tracer.counts["linearize.nodes"],
        "exports.busy_s": busy("exports.dependency_to_json"),
        "cli.interpreter_ms": cli_ms[0],
        "cli.import_ms": cli_ms[1],
        **{f"cli.{verb}.p50_ms": ms for verb, ms in verb_ms.items()},
        "trace.overhead_frac": traced_s / untraced_s - 1 if untraced_s else 0.0,
        "probe.deep.attempted": probe_attempted,
        "probe.deep.failed": probe_failed,
    }


def print_span_table(tracer):
    print(f"  {'span':44s} {'calls':>7s} {'busy_s':>10s} {'self_s':>10s}")
    for name, row in sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:44s} {row['calls']:7d} {row['busy_s']:10.4f} {row['self_s']:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + WALL_LIMIT_S

    if not (ROOT / "src" / "tagforge" / "__init__.py").is_file():
        print(f"bench: no tagforge sources in {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Plain, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")

    tracer = Tracer()
    workload.load(tracer if args.trace else Plain)
    probe_attempted, probe_failures = deep_probe()
    print(f"probe.deep: attempted {probe_attempted}, failed {len(probe_failures)}"
          + (f" ({'; '.join(probe_failures)})" if probe_failures else ""))

    if args.trace:
        samples = measure(workload, args.seconds, [Plain, tracer], deadline)
        cli_ms = cli_probe_ms() if workload.module == "tagforge.cli" else (0.0, 0.0)
        values = per_layer(tracer, samples[0], cli_ms, probe_attempted, len(probe_failures))
        units = PER_LAYER
        print_span_table(tracer)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        setup = setup_seconds(workload)
        samples = [sample] = measure(workload, args.seconds, [Plain], deadline)
        setup = statistics.median(setup + setup_seconds(workload))
        values = end_to_end(workload, sample, setup)
        units = END_TO_END
        _, pct, beyond = tail(sample.latencies)
        print(f"  {sample.attempted} ops, {len(sample.deck_busy)} whole decks, {sample.busy:.2f} s busy; "
              f"op_tail_ms is p{pct:.1f} ({beyond} samples beyond it); "
              f"failed_frac {len(sample.failures) / sample.attempted:g}")

    for name, unit in units.items():
        print(f"  {name:44s} {values[name]:14.6g} {unit}")
    attempted = sum(s.attempted for s in samples)
    failures = [f for s in samples for f in s.failures]
    for failure in failures[:5]:
        print(f"  FAILED {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
