"""Benchmark two checkouts in alternating pairs and write a BENCH file.

    python3 tools/bench_pairs.py PARENT CHANGE --seeds 21-30 --seconds 20 \\
        --out BENCH_N.json [--workloads solve-cubic,simulate] [--trace-seed 11] [--ladder]

PARENT and CHANGE are repository checkouts, each with its own perfbench/
and src/.  Every pair runs ``perfbench/run.py --trace 0`` on both with the
same seed, the parent first on odd seeds and the change first on even
ones.  For each end-to-end metric of BENCHMARK.json the file records the
quartiles of the per-run values on each side (statistics.quantiles,
inclusive), how many pairs the change wins by the metric's direction, and
the relative change of the medians.  --trace-seed adds one traced run per
side and workload; --ladder adds exact node counts, values and witnesses
of the instance ladder below, solved in-process in each checkout; an
instance a side does not reach within LADDER_SECONDS records null there.
--ladder also records each checkout's in-process kernel times, best of
KERNEL_REPEATS (see time_kernels).  The kernels and the ladder run twice
per side, in the order parent, change, change, parent, so a drift in
machine load falls on both sides; each side keeps its faster time per
kernel and per instance and records whether its two ladder runs agree on
value, nodes and witness.  Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit
from operator import itemgetter

# name -> (builder, its arguments, k); "grid" is the a x b grid graph
LADDER = {
    "circulant24-1-2-12": ("circulant_graph", (24, (1, 2, 12)), 3),
    "circulant20-1-2-10": ("circulant_graph", (20, (1, 2, 10)), 4),
    **{f"random5reg{n}-seed{s}": ("random_regular_graph", (n, 5, s), 3)
       for n in (24, 30) for s in (1, 2, 3)},
    **{f"random4reg80-seed{s}": ("random_regular_graph", (80, 4, s), 3) for s in (2, 3, 5, 6)},
    "grid4x5": ("grid", (4, 5), 2),
    "grid5x5": ("grid", (5, 5), 2),
    "grid2x8": ("grid", (2, 8), 2),
    "grid4x6": ("grid", (4, 6), 3),
    **{f"cycle_replacement({m},2)": ("cycle_replacement", (m, 2), 2) for m in (3, 4, 5)},
    **{f"path_replacement({m},1)": ("path_replacement", (m, 1), 2) for m in range(3, 13)},
}
# each side's ladder run stops after this many seconds; the instances it did
# not reach record null (without the bridge split, path_replacement(6,1)
# takes 47 s and m = 7 does not finish)
LADDER_SECONDS = 120


def solve_ladder():
    """Run inside a checkout (src/ on sys.path): one JSON line per instance."""
    from convlab import constructions, graph
    from convlab.solver import ck_exact

    def grid(a, b):
        return graph.build_graph(a * b, [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
                                 + [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)])

    builders = {**vars(graph), **vars(constructions), "grid": grid}
    for name, (builder, args, k) in LADDER.items():
        g = builders[builder](*args)
        start = time.perf_counter()
        res = ck_exact(g, k)
        ms = 1000 * (time.perf_counter() - start)
        print(json.dumps({"name": name, "k": k, "n": g.n, "value": res.value,
                          "nodes": res.nodes_explored, "witness": res.witness, "ms": ms}), flush=True)


KERNEL_REPEATS = 5


def time_kernels():
    """Run inside a checkout: one JSON line of microseconds per call, the
    best of KERNEL_REPEATS timeit runs, for the bitmask kernels on 3,000
    vertices: ``bits`` over a dense (half the bits) and a sparse (10 bits)
    mask; ``run_process``, ``residual_core`` and ``characterization_check``
    at k = 2 on random_regular_graph(3000, 4, seed=1) from a seed of
    density 0.2, which converts everything in about ten layers (the last
    two read the graph's degree sequence, which the first call counts and
    every later call reuses); and for the pairing sampler: the 120
    (n, d, seed) draws of verify.suite_characterization, rebuilt from its
    own random.Random(20260823) choices, and random_regular_graph(3000, 4,
    seed=1) itself."""
    import random

    from convlab import constructions, graph, process

    rng = random.Random(20260823)
    draws = []
    for i in range(120):  # the suite's calls, including the n random() of its seed set
        d = rng.choice([3, 4, 5])
        n = rng.choice([8, 10, 12, 14])
        for _ in range(n):
            rng.random()
        draws.append((n, d, 20260823 + i))
    rng = random.Random(1)
    g = constructions.random_regular_graph(3000, 4, seed=1)
    dense = sum(1 << v for v in range(3000) if rng.random() < 0.5)
    sparse = sum(1 << v for v in rng.sample(range(3000), 10))
    seed = sum(1 << v for v in range(3000) if rng.random() < 0.2)
    kernels = {
        "bits_dense3000": lambda: list(graph.bits(dense)),
        "bits_sparse3000": lambda: list(graph.bits(sparse)),
        "run_process_rr3000": lambda: process.run_process(g, seed, 2),
        "residual_core_rr3000": lambda: process.residual_core(g, g.full_mask & ~seed, 2),
        "characterization_check_rr3000": lambda: process.characterization_check(g, seed, 2),
        "random_regular_suite": lambda: [constructions.random_regular_graph(*draw) for draw in draws],
        "random_regular_rr3000": lambda: constructions.random_regular_graph(3000, 4, seed=1),
    }
    out = {}
    for name, call in kernels.items():
        timer = timeit.Timer(call)
        number = timer.autorange()[0]
        out[name] = round(1e6 * min(timer.repeat(KERNEL_REPEATS, number)) / number, 2)
    print(json.dumps(out), flush=True)


def run(checkout, *args, timeout=None):
    """Output lines of a Python run in the checkout; on timeout, the lines
    printed before it."""
    try:
        out = subprocess.run([sys.executable, *args], cwd=checkout, check=True, text=True,
                             capture_output=True, env={**os.environ, "PYTHONPATH": "src"},
                             timeout=timeout).stdout
    except subprocess.TimeoutExpired as stopped:
        out = (stopped.stdout or b"").decode()
    return out.strip().splitlines()


def bench(checkout, workload, seed, seconds, trace=0):
    line = run(checkout, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace))[-1]
    return json.loads(line)


def quartiles(values):
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4)}


def pairs(sides, workload, seeds, seconds, spec):
    runs = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            runs[side].append(bench(sides[side], workload, seed, seconds))
        print(f"{workload} seed {seed}: " + " ".join(
            f"{side} wall_s {runs[side][-1]['metrics']['wall_s']['value']:.4f}" for side in runs),
            file=sys.stderr, flush=True)
    entry = {"pairs": len(seeds), "seeds": list(seeds)}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        parent_median = statistics.median(values["parent"])
        entry[name] = {side: quartiles(values[side]) for side in runs}
        entry[name]["change_wins"] = sum(sign * (c - p) < 0 for p, c in zip(*values.values()))
        entry[name]["relative_change"] = round(
            (statistics.median(values["change"]) - parent_median) / parent_median, 4) if parent_median else 0.0
    entry["failed_of_attempted"] = {side: [sum(r["failed"] for r in runs[side]),
                                           sum(r["attempted"] for r in runs[side])] for side in runs}
    entry["correct"] = all(r["correct"] for side in runs for r in runs[side])
    return entry


def cpu_name():
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    except OSError:  # no /proc outside Linux
        names = []
    return names[0] if names else platform.machine()


def seed_list(text):
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 21-30 or 3,5")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", help="comma-separated; default all four")
    parser.add_argument("--trace-seed", type=int, help="add one traced run per side and workload")
    parser.add_argument("--ladder", action="store_true", help="add the node-count ladder")
    parser.add_argument("--title", default="benchmark trajectory")
    args = parser.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=sides["parent"],
                          capture_output=True, text=True).stdout.strip()
    out = {"title": args.title, "parent": head or None,
           "machine": {"cpu": cpu_name(), "cores": os.cpu_count(),
                       "python": platform.python_version(), "os": platform.system()},
           "method": f"tools/bench_pairs.py --seeds {args.seeds[0]}-{args.seeds[-1]} --seconds "
                     f"{args.seconds:g}: see its docstring", "end_to_end": {}}
    for workload in names:
        out["end_to_end"][workload] = pairs(sides, workload, args.seeds, args.seconds, spec)
    if args.trace_seed is not None:
        for workload in names:
            out[f"per_layer_{workload}_seed{args.trace_seed}"] = {side: {
                name: m["value"] for name, m in bench(
                    path, workload, args.trace_seed, args.seconds, trace=1)["metrics"].items()}
                for side, path in sides.items()}
    if args.ladder:
        code = (f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r}); "
                "import bench_pairs; bench_pairs.")
        kernels = {side: [] for side in sides}
        solved = {side: [] for side in sides}
        for side in ("parent", "change", "change", "parent"):
            kernels[side].append(json.loads(run(sides[side], "-c", code + "time_kernels()")[-1]))
            solved[side].append({r["name"]: r for r in map(json.loads, run(
                sides[side], "-c", code + "solve_ladder()", timeout=LADDER_SECONDS))})
        out["kernels_us"] = {name: {side: min(k[name] for k in kernels[side]) for side in sides}
                             for name in kernels["change"][0]}
        out["ladder_seconds"] = LADDER_SECONDS
        out["node_counts"] = {}
        same = itemgetter("value", "nodes", "witness")
        for name in LADDER:
            runs = {side: [r[name] for r in solved[side] if name in r] for side in sides}
            got = {side: min(rs, key=itemgetter("ms"), default=None) for side, rs in runs.items()}
            parent, change = got["parent"], got["change"]
            ref = change or parent or {}
            out["node_counts"][name] = {
                "k": ref.get("k"), "n": ref.get("n"), "value": ref.get("value"),
                "value_equal": parent["value"] == change["value"] if parent and change else None,
                "nodes": {side: r and r["nodes"] for side, r in got.items()},
                "witness_equal": parent["witness"] == change["witness"] if parent and change else None,
                "ms_in_process": {side: r and round(r["ms"], 2) for side, r in got.items()},
                "runs_agree": {side: same(rs[0]) == same(rs[1]) if len(rs) == 2 else None
                               for side, rs in runs.items()},
            }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
