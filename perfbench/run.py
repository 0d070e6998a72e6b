"""convlab benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  A run
sets up several times (import convlab, then load_graph of every input) and
reports the median, then repeats passes over the workload's operations
until S seconds have been measured.  Every answer is checked against a
reference computed by the benchmark itself, outside the timed region.

The machine's speed drifts by up to 2.4 times, in phases of seconds to
minutes, so every time is scaled to a reference machine speed by a fixed
stdlib probe timed right before and right after it: a set-up or operation
that took t seconds between probes of p1 and p2 seconds counts as
t * PROBE_REFERENCE_S / mean(p1, p2).  Each metric is the median of these
scaled times over the run's repetitions (NOTES.md).

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics from traced passes (spans around convlab's public
functions, see tracer.py), alternated with untraced ones.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 15
MIN_PASSES = 5  # the median of fewer repetitions still moves with jitter
MIN_TRACED_PASSES = 3  # so counts and the overhead ratio have something to compare
PROBE_REFERENCE_S = 0.010
PROBE_EVERY_S = 0.1  # within a pass, probe between operations this often


def make_probe():
    """A fixed computation, independent of convlab and of the workload
    seed, in the two styles of its work: the benchmark's own simulator on a
    1500-vertex 4-regular graph from four seed sets (loops over wide
    bitmasks), then a loop that builds tuples, lists and a dict (the
    object-heavy work of the verify suites)."""
    rng = random.Random(1)
    n = 1500
    adj = reference.adjacency(n, inputs.regular_edges(n, 4, rng))
    seeds = [sum(1 << v for v in range(n) if rng.random() < 0.2) for _ in range(4)]

    def probe():
        start = perf_counter()
        for seed in seeds:
            reference.layers(adj, seed, 2)
        rng = random.Random(2)
        groups = {}
        for i in range(3000):
            key = (rng.randrange(300), rng.randrange(300))
            groups[key] = groups.get(key, []) + [i]
        sorted(groups.items())
        return perf_counter() - start

    # one probe is itself jittered; the faster of two is steadier
    return lambda: min(probe(), probe())


def fresh_setup(src, texts):
    """Import convlab from scratch and parse every input; return
    (seconds, package, graphs)."""
    for name in [m for m in sys.modules if m == "convlab" or m.startswith("convlab.")]:
        del sys.modules[name]
    start = perf_counter()
    cl = importlib.import_module("convlab")
    importlib.import_module("convlab.cli")
    graphs = [cl.fileio.load_graph(text) for text in texts]
    elapsed = perf_counter() - start
    if not os.path.abspath(cl.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported convlab from {cl.__file__}, not {src}")
    return elapsed, cl, graphs


def run_pass(ops, cl, graphs, probe, tracer=None):
    """Issue every operation once, each after the previous one returned.

    The probe is timed before the first operation, after the last, and
    between operations once PROBE_EVERY_S has passed since the previous
    probe.  Returns latencies, outcomes and, per operation, the mean of the
    probes just before and just after it."""
    latencies, outcomes, marks = [], [], []
    probes = [probe()]
    since = perf_counter()
    for i, op in enumerate(ops):
        if perf_counter() - since >= PROBE_EVERY_S:
            probes.append(probe())
            since = perf_counter()
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            outcome = (op.call(cl, graphs), None)
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome = (None, f"{type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - t0)
        outcomes.append(outcome)
        marks.append(len(probes) - 1)
    probes.append(probe())
    return latencies, outcomes, [(probes[m] + probes[m + 1]) / 2 for m in marks]


def scaled(latency, speed):
    """A time at the reference machine speed, given the probe time around it."""
    return latency * PROBE_REFERENCE_S / speed


class Tally:
    """Answers checked and latencies kept, per operation, over passes."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = {}
        self.first_results = None
        self.latencies = [[] for _ in ops]
        self.scaled = [[] for _ in ops]
        self.ok = [True] * len(ops)

    def add(self, latencies, outcomes, speeds):
        """Check one pass's answers (untimed) and record its latencies,
        raw and scaled by the probe times in speeds."""
        for i, (op, lat, (result, error)) in enumerate(zip(self.ops, latencies, outcomes)):
            self.attempted += 1
            self.latencies[i].append(lat)
            self.scaled[i].append(scaled(lat, speeds[i]))
            if error is None:
                error = op.check(result)
                if error is not None:
                    self.wrong += 1
            if error is not None:
                self.failed += 1
                self.ok[i] = False
                self.messages.setdefault(op.label, error)
        if self.first_results is None:
            self.first_results = [r for r, _ in outcomes]

    def passes(self):
        return len(self.latencies[0])

    def best(self):
        return [min(lat) for lat in self.latencies]


def end_to_end(setup_times, tally):
    typical = [statistics.median(s) for s in tally.scaled]
    ok = sorted(t for t, good in zip(typical, tally.ok) if good) or sorted(typical)
    # the highest percentile with at least ten operations beyond it; with
    # fewer than 100 operations that would lie below p90, so the slowest
    # operation is reported instead
    tail = ok[-11] if len(ok) >= 100 else ok[-1]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = tally.attempted
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (sum(typical), "s", samples),
        "op_p50_ms": (1000 * statistics.median(ok), "ms", samples),
        "op_tail_ms": (1000 * tail, "ms", samples),
        "ok_rate": ((tally.attempted - tally.failed) / tally.attempted, "share", samples),
        "peak_rss_mb": (rss, "MB", 1),
    }


def layer_metrics(cl, summary, traced_seconds, overhead):
    stats, counts, oracle_solves = summary

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    out = {}
    for name, (n_calls, _, self_s) in stats.items():
        out[f"{name}.calls"] = (n_calls, "count")
        out[f"{name}.self_share"] = (self_s / traced_seconds, "share")
    for key in ("search.nodes", "solver.oracle_subsets", "process.layers"):
        out[key] = (counts.get(key, 0), "count")
    nodes = counts.get("search.nodes", 0)
    search_s = inclusive("search.max_r_degenerate_set")
    out["search.us_per_node"] = (1e6 * search_s / nodes if nodes else 0.0, "us")
    exact = calls("solver.ck_exact")
    out["solver.oracle_share"] = (oracle_solves / exact if exact else 0.0, "share")
    suite_sum = 0.0
    for suite_id, fn in cl.verify.SUITES.items():
        seconds = inclusive(f"verify.{fn.__name__}")
        suite_sum += seconds
        out[f"verify.{suite_id}.share"] = (seconds / traced_seconds, "share")
    out["verify.suite_sum_share"] = (suite_sum / traced_seconds, "share")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def count_signature(summary):
    stats, counts, oracle_solves = summary
    return (tuple(sorted((k, v[0]) for k, v in stats.items())),
            tuple(sorted(counts.items())), oracle_solves)


def traced_run(work, cl, graphs, probe, seconds, tally):
    """Alternate untraced and traced passes; return the per-layer metrics."""
    tracer = Tracer(cl)
    plain_scaled, traced, traced_scaled, loads, summaries = [], [], [], [], []
    measured = 0.0
    while measured < seconds or len(traced) < MIN_TRACED_PASSES:
        latencies, outcomes, speeds = run_pass(work.ops, cl, graphs, probe)
        tally.add(latencies, outcomes, speeds)
        measured += sum(latencies)
        plain_scaled.append(sum(map(scaled, latencies, speeds)))
        tracer.reset()
        tracer.install()
        try:
            tracer.op = -1
            start = perf_counter()
            graphs = [cl.fileio.load_graph(text) for text in work.texts]
            load = perf_counter() - start
            latencies, outcomes, speeds = run_pass(work.ops, cl, graphs, probe, tracer)
        finally:
            tracer.uninstall()
        tally.add(latencies, outcomes, speeds)
        traced.append(sum(latencies))
        traced_scaled.append(sum(map(scaled, latencies, speeds)))
        loads.append(load)
        summaries.append(tracer.summary())
        measured += load + traced[-1]
    if len({count_signature(s) for s in summaries}) != 1:
        tally.wrong += 1
        tally.messages["trace"] = "exact counts differ between traced passes"
    overhead = statistics.median(traced_scaled) / statistics.median(plain_scaled)
    per_pass = [layer_metrics(cl, s, load + t, overhead)
                for s, load, t in zip(summaries, loads, traced)]
    print("spans (first traced pass): name calls inclusive_s self_s")
    stats = summaries[0][0]
    for name, (n_calls, incl, self_s) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
        if n_calls:
            print(f"  {name:44} {n_calls:>10} {incl:>12.6f} {self_s:>12.6f}")
    print("counts sha256:" + hashlib.sha256(
        repr(count_signature(summaries[0])).encode()).hexdigest())
    # counts are identical between passes (checked above); times vary
    return {name: (value if unit == "count" else statistics.median(p[name][0] for p in per_pass),
                   unit, len(per_pass))
            for name, (value, unit) in per_pass[0].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "convlab", "__init__.py")):
        print("perfbench: ./src/convlab not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    os.environ.pop("CONVLAB_THREADS", None)  # verify's default pool size

    work = workloads.WORKLOADS[args.workload](args.seed)
    print(f"perfbench workload={work.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} {platform.python_implementation()} "
          f"{platform.python_version()} {platform.machine()}")
    digests = work.digests()
    for label, digest in zip(work.labels, digests):
        print(f"input {label} sha256:{digest[:16]}")
    print("inputs sha256:" + hashlib.sha256("".join(digests).encode()).hexdigest())

    probe = make_probe()
    setup_times, raw_setup, probes = [], [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        seconds, cl, graphs = fresh_setup(src, work.texts)
        after = probe()
        probes += [before, after]
        raw_setup.append(seconds)
        setup_times.append(scaled(seconds, (before + after) / 2))

    tally = Tally(work.ops)
    if args.trace:
        metrics = traced_run(work, cl, graphs, probe, args.seconds, tally)
        wanted = spec["per_layer"]
    else:
        measured = 0.0
        while measured < args.seconds or tally.passes() < MIN_PASSES:
            latencies, outcomes, speeds = run_pass(work.ops, cl, graphs, probe)
            tally.add(latencies, outcomes, speeds)
            probes += speeds
            measured += sum(latencies)
        print(f"speed: median probe {1000 * statistics.median(probes):.3f} ms; times scaled "
              f"to a {1000 * PROBE_REFERENCE_S:g} ms probe")
        print(f"unscaled: setup_s {statistics.median(raw_setup):.6f} "
              f"wall_s {sum(statistics.median(lat) for lat in tally.latencies):.6f}")
        metrics = end_to_end(setup_times, tally)
        wanted = spec["end_to_end"]

    for op, result, best in zip(work.ops, tally.first_results, tally.best()):
        line = f"op {op.label}: fastest {1000 * best:.3f} ms"
        if hasattr(result, "nodes_explored"):
            line += f" value={result.value} nodes={result.nodes_explored}"
        print(line)
    print(f"passes: {tally.passes()}")
    for label, message in tally.messages.items():
        print(f"FAILED {label}: {message}")
    rows = {entry["name"]: metrics.get(entry["name"], (0, entry["unit"], 0))
            for entry in wanted}
    print("metrics:")
    for name, (value, unit, samples) in rows.items():
        print(f"  {name:44} {value:>16.6g} {unit:6} ({samples} samples)")
    report = {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()}
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
