"""ladderlab benchmark: verify-search, certify and decide workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Each case of a workload runs in its own fresh interpreter (``worker.py``),
one at a time, so no case inherits another's memo tables. A pass runs every
case of the workload once; passes repeat until the next one would end after
``--seconds``, but at least three run. The end-to-end metrics are medians
over passes; ``setup_s`` is the median over interpreters started only to
time set-up.

With ``--trace 1`` passes alternate between untraced and traced; the run
reports the per-layer metrics (medians over traced passes), the tracing
overhead (traced minus untraced operation time) and writes every span to
``perfbench/out/trace-<workload>-seed<N>.json``.

``--smoke`` runs tiny inputs once, for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero, with no result printed, when the library cannot be loaded.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cases import SEEDED_ORDER, SMOKE, WORKLOADS
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (name, unit); every entry is in BENCHMARK.json with the same unit.
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_bytes", "bytes"),
    ("success_rate", "ratio"),
)
PER_LAYER = (
    ("groups.load_s", "s"),
    ("groups.self_s", "s"),
    ("freeproduct.ball_s", "s"),
    ("freeproduct.ball_members", "count"),
    ("freeproduct.self_s", "s"),
    ("words.parse_s", "s"),
    ("words.rewrite_s", "s"),
    ("words.evaluate_s", "s"),
    ("words.evaluate_calls", "count"),
    ("words.ell", "count"),
    ("words.self_s", "s"),
    ("ladder.word_index_s", "s"),
    ("ladder.search_s", "s"),
    ("ladder.self_s", "s"),
    ("ladder.nodes", "count"),
    ("ladder.rows", "count"),
    ("ladder.pairs_evaluated", "count"),
    ("ladder.pair_share", "ratio"),
    ("ramsey.le_bound_s", "s"),
    ("ramsey.sat_min_s", "s"),
    ("ramsey.is_ge_int_s", "s"),
    ("ramsey.bound_nodes", "count"),
    ("ramsey.self_s", "s"),
    ("bounds.theorem_bound_s", "s"),
    ("bounds.to_json_s", "s"),
    ("bounds.from_json_s", "s"),
    ("bounds.verify_certificate_s", "s"),
    ("bounds.replay_certificate_s", "s"),
    ("bounds.ranges", "count"),
    ("bounds.subproduct_refs", "count"),
    ("bounds.cert_bytes", "bytes"),
    ("bounds.self_s", "s"),
    ("report.run_verify_s", "s"),
    ("report.to_json_s", "s"),
    ("report.self_s", "s"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.solve_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

RUN_LIMIT_S = 165.0  # no worker runs past this, whatever --seconds says
SETUP_PROBES = 31  # interpreters started only to time set-up, per run
MIN_PASSES = 3  # untraced; a median of two would be a mean


class LoadError(Exception):
    """The library or the specs could not be loaded; no result is printed."""


def run_case(case, mode, deadline):
    """Start one worker and wait for it. A worker that fails before it is
    ready raises LoadError; one that fails, crashes or outlives the run's
    deadline after that counts as a failed operation."""
    remaining = deadline - time.perf_counter()
    failure = {"op_s": 0.0, "output_bytes": 0, "rss_mb": 0.0}
    if remaining <= 0:
        return dict(failure, error="not started: the run's time limit was reached")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # cold starts use cached bytecode, as installs do
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(case), repr(t0), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        return dict(failure, error=f"killed at the run's time limit after {remaining:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise LoadError(proc.stderr.strip() or f"worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["fresh_memo"]:
        raise LoadError("a fresh interpreter started with non-empty memo tables")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return dict(failure, error=f"worker exited {proc.returncode} {tail[0]}")
    return result


def sum_layers(results):
    total = {}
    for r in results:
        for key, value in r.get("layers", {}).items():
            total[key] = total.get(key, 0) + value
    domain_pairs = total.pop("ladder.domain_pairs", 0)
    total["ladder.pair_share"] = (
        total.get("ladder.pairs_evaluated", 0) / domain_pairs if domain_pairs else 0.0)
    return total


def solve_time(passes):
    """Sum over cases of each case's median operation time across passes;
    a disturbance that hits different cases in different passes drops out."""
    return sum(statistics.median(results[i]["op_s"] for results in passes)
               for i in range(len(passes[0])))


def run_workload(name, cases, seed, seconds, trace, smoke):
    rng = random.Random(seed)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    run_case(cases[0], "setup", deadline)  # writes bytecode caches; not counted
    setup_samples = []

    def probe_setup(share):
        """Time set-up in fresh interpreters until ``share`` of the probes
        are done; spreading them over the run evens out machine drift."""
        while len(setup_samples) < (3 if smoke else SETUP_PROBES) * share:
            result = run_case(cases[len(setup_samples) % len(cases)], "setup", deadline)
            if result.get("error"):
                return
            setup_samples.append(result["setup_s"])

    passes = []  # (traced, [worker result per case, in case order])
    while True:
        traced = trace and len(passes) % 2 == 1
        order = list(range(len(cases)))
        if name in SEEDED_ORDER:
            rng.shuffle(order)
        results = [None] * len(cases)
        for i in order:
            results[i] = run_case(cases[i], "trace" if traced else "run", deadline)
            probe_setup(min(1.0, (time.perf_counter() - start) / seconds))
        passes.append((traced, results))
        now = time.perf_counter()
        next_end = now - start + (now - start) / len(passes)
        # a traced run needs one untraced and one traced pass
        enough = len(passes) >= (2 if trace else 1 if smoke else MIN_PASSES)
        if now - start >= RUN_LIMIT_S or enough and (smoke or next_end > seconds):
            break
    probe_setup(1.0)

    all_results = [r for _, results in passes for r in results]
    failed = [r["error"] for r in all_results if r["error"]]
    plain = [results for traced, results in passes if not traced]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "solve_s": solve_time(plain),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in results) for results in plain),
        "output_bytes": statistics.median(sum(r["output_bytes"] for r in results) for results in plain),
        "success_rate": 1 - len(failed) / len(all_results),
    }
    out = {"workload": name, "passes": len(passes), "untraced_passes": len(plain), "cases": len(cases),
           "attempted": len(all_results), "failed": failed, "metrics": metrics,
           "setup_samples": setup_samples}
    if trace:
        traced_passes = [results for traced, results in passes if traced]
        layers = [sum_layers(results) for results in traced_passes]
        traced_solve = solve_time(traced_passes)
        per_layer = {key: statistics.median(p.get(key, 0) for p in layers)
                     for key, _ in PER_LAYER}
        per_layer["trace.solve_s"] = traced_solve
        per_layer["trace.overhead_s"] = traced_solve - metrics["solve_s"]
        out["per_layer"] = per_layer
        # one operation per worker: "<traced pass>.<case>"
        out["spans"] = [dict(span, op=f"{p}.{i}") for p, results in enumerate(traced_passes)
                        for i, r in enumerate(results) for span in r.get("spans", [])]
    return out


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def print_table(result, env, trace):
    metrics = result["metrics"]
    units = dict(END_TO_END + PER_LAYER)
    print(f"workload {result['workload']}: {result['passes']} passes of "
          f"{result['cases']} cases, nproc {env['nproc']}, "
          f"{env['implementation']} {env['python']}, {env['platform']}")
    samples = sorted(result["setup_samples"])
    notes = {
        "setup_s": f"median of {len(samples)} cold starts",
        "solve_s": f"sum of per-case medians over {result['untraced_passes']} untraced passes",
        "error_rate": f"{len(result['failed'])} failed of {result['attempted']} attempted",
    }
    if len(samples) > 10:  # the highest rank with 10 samples above it
        notes["setup_s"] += f"; {samples[-11]:.4g} s or less in all but 10"
    rows = [(k, metrics[k], units[k]) for k, _ in END_TO_END]
    rows.insert(4, ("error_rate", len(result["failed"]) / result["attempted"], "ratio"))
    for key, value, unit in rows:
        print(f"  {key:<28} {value:>14.6g} {unit:<6} {notes.get(key, '')}".rstrip())
    for message in result["failed"]:
        print(f"  FAILED: {message}")
    if trace:
        layers = result["per_layer"]
        for key, unit in PER_LAYER:
            print(f"  {key:<28} {layers[key]:>14.6g} {unit}")
        self_total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        print(f"  layer self times sum to {self_total:.4f} s (traced solve "
              f"{layers['trace.solve_s']:.4f} s); minus overhead "
              f"{layers['trace.overhead_s']:.4f} s gives "
              f"{self_total - layers['trace.overhead_s']:.4f} s against untraced "
              f"solve_s {metrics['solve_s']:.4f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass; for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ladderlab" / "__init__.py").is_file() or not (ROOT / "specs").is_dir():
        print(f"error: no ladderlab sources under {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    table = SMOKE if args.smoke else WORKLOADS
    env = environment()
    results = []
    try:
        for name in names:
            results.append(run_workload(name, table[name], args.seed, args.seconds,
                                        bool(args.trace), args.smoke))
    except LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    keys = PER_LAYER if args.trace else END_TO_END
    units = dict(keys)
    metrics = {}
    for result in results:
        print_table(result, env, args.trace)
        values = result["per_layer"] if args.trace else result["metrics"]
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update({prefix + k: {"value": values[k], "unit": units[k]} for k, _ in keys})
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            path = out_dir / f"trace-{result['workload']}-seed{args.seed}.json"
            path.write_text(json.dumps({"environment": env, "workload": result["workload"],
                                        "seed": args.seed, "spans": result["spans"]}))
            print(f"  spans written to {path.relative_to(ROOT)}")
    print(json.dumps(env))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failed"]) for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
