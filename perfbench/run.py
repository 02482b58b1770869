"""fairprop benchmark: one run of one workload.

    python3 perfbench/run.py --workload fair-deep --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. It writes the workload's inputs from
``--seed``, then runs repetitions of the workload, each in a fresh interpreter
(``perfbench/workloads.py``), until ``--seconds`` are used, and reports medians
over the repetitions. With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics. The last line of standard
output is one JSON object; the lines before it repeat every metric by name
with its unit, for people. The exit code is 0 only when every correctness
check passed.

The benchmark changes no machine settings (no CPU pinning, cache drops or
frequency governors). It limits BLAS to one thread in its own processes and
relies on repeats and medians for steadiness.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # at or below nproc; one thread is steadier on a shared machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPS = 2  # untraced repetitions per run; two also give the determinism check
MAX_REPS = 40
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Primitives recorded on the tape, for autodiff.primitive_calls_per_epoch.
PRIMITIVES = (
    "matmul",
    "spmm_const",
    "add",
    "scale",
    "elementwise_mul",
    "relu",
    "row_softmax",
    "clamp",
    "row_sum_broadcast",
    "total_sum",
    "cross_entropy_with_logits",
)

# Metrics printed for people that BENCHMARK.json does not bound (see README.md).
INFO_METRICS = {
    "test_dp": ("fraction", "lower"),
    "dp_reduction": ("fraction", "higher"),
    "failed_frac": ("fraction", "lower"),
}


def machine_info():
    info = {
        "cores_affinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads_requested": BLAS_THREADS,
        "python_hash_seed": "one per repetition, from --seed and the repetition's index",
        "machine_settings_changed": "none: no pinning, cache drops or governors; repeats and medians instead",
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def hash_seed(seed, index):
    """PYTHONHASHSEED of repetition ``index`` of the run with ``seed``.

    The hash seed is part of the workload's input: each repetition of a run
    gets its own, so the digest check compares results across hash seeds.
    """
    return (seed * MAX_REPS + index) % 2**32


def run_rep(workload, inputs, work, traced, deadline, python_hash_seed):
    """One repetition in a child interpreter; returns its result document or None."""
    shutil.rmtree(work, ignore_errors=True)
    cmd = [
        sys.executable,
        os.path.join(HERE, "workloads.py"),
        "--workload", workload,
        "--inputs", inputs,
        "--work", work,
        "--trace", str(int(traced)),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        env = dict(os.environ, PYTHONHASHSEED=str(python_hash_seed))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"repetition exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quality(runs):
    """test_acc, test_dp and dp_reduction over the per-run rows of one repetition."""
    fair = [r for r in runs if r[0] == "fair"]
    debiased = [r for r in fair if r[2] > 0]
    baseline = {(r[1], r[3]): r for r in fair if r[2] == 0}
    pairs = [(baseline[(r[1], r[3])], r) for r in debiased if (r[1], r[3]) in baseline]

    def mean(values):  # NaN when a failed step left no runs to average
        values = list(values)
        return statistics.fmean(values) if values else math.nan

    return {
        "test_acc": mean(r[4] for r in debiased),
        "test_dp": mean(r[5] for r in debiased),
        "dp_reduction": mean(b[5] - r[5] for b, r in pairs),
    }


def end_to_end(untraced, attempted, failed):
    values = {
        "setup_s": statistics.median(d["setup_s"] for d in untraced),
        "train_epochs_per_s": statistics.median(d["epochs"] / d["train_s"] for d in untraced),
        "total_s": statistics.median(d["total_s"] for d in untraced),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in untraced),
        "failed_frac": failed / attempted,
    }
    values.update(quality(untraced[0]["runs"]))
    return values


def per_layer(untraced, traced):
    """Every per-layer value the traced repetitions give, by metric name."""
    values = {}
    names = set().union(*(d["trace"]["spans"] for d in traced))
    for name in names:
        for field in ("calls", "self_s", "total_s"):
            values[f"{name}.{field}"] = statistics.median(
                d["trace"]["spans"].get(name, {}).get(field, 0) for d in traced
            )

    def per_rep(fn):
        return statistics.median(fn(d) for d in traced)

    def calls(d, name):
        return d["trace"]["spans"].get(name, {}).get("calls", 0)

    values["autodiff.primitive_calls_per_epoch"] = per_rep(
        lambda d: sum(calls(d, f"autodiff.{p}") for p in PRIMITIVES) / max(d["epochs"], 1)
    )
    values["propagation.ppnp_exact.calls_per_run"] = per_rep(
        lambda d: calls(d, "propagation.ppnp_exact") / max(sum(r[0] == "ppnp_exact" for r in d["runs"]), 1)
    )
    values["data.synth_generate.attempts"] = per_rep(
        lambda d: d["trace"]["pairs"].get("data.synth_generate>graph.build_graph", 0)
        / max(calls(d, "data.synth_generate"), 1)
    )
    values["bench.total_s"] = per_rep(lambda d: d["total_s"])
    values["bench.self_s"] = per_rep(
        lambda d: d["total_s"] - sum(s["self_s"] for s in d["trace"]["spans"].values())
    )
    values["bench.trace_overhead_frac"] = (
        values["bench.total_s"] / statistics.median(d["total_s"] for d in untraced) - 1.0
    )
    return values, sorted(set(traced[0]["trace"]["wrapped"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description="fairprop benchmark: one run of one workload")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write every repetition's document and the span table here")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fairprop", "__init__.py")):
        print(f"error: no src/fairprop under {root}; run from the root of a fairprop checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work_root = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs, work = os.path.join(work_root, "inputs"), os.path.join(work_root, "rep")
    reps = []  # (traced, document or None)
    try:
        workloads.prepare(args.workload, args.seed, inputs)
        measure_start = time.monotonic()
        longest = 0.0
        while len(reps) < MAX_REPS:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep_start = time.monotonic()
            doc = run_rep(args.workload, inputs, work, traced, deadline, hash_seed(args.seed, len(reps)))
            reps.append((traced, doc))
            now = time.monotonic()
            longest = max(longest, now - rep_start)
            n_untraced = sum(not t for t, _ in reps)
            n_traced = len(reps) - n_untraced
            done = n_untraced >= MIN_REPS and (n_traced >= 1 or not args.trace)
            if reps[-1][1] is None or now + longest > deadline:
                break
            if done and now - measure_start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    docs = [d for _, d in reps if d is not None]
    untraced = [d for t, d in reps if d is not None and not t]
    traced = [d for t, d in reps if d is not None and t]
    crashed = len(reps) - len(docs)  # a repetition that died counts as one failed operation
    attempted = max(1, sum(d["attempted"] for d in docs) + crashed)
    failed = sum(d["failed"] for d in docs) + crashed
    checks = [c for d in docs[:1] for c in d["checks"]]
    checks += [c for d in docs[1:] for c in d["checks"] if not c[1]]
    digests = sorted({d["digest"] for d in docs})
    checks.append(["same digest of (acc, dp, eo) in every repetition", len(digests) == 1, ",".join(digests)])
    checks.append(["every repetition completed", not crashed and bool(untraced), f"{len(docs)}/{len(reps)}"])
    if args.trace:
        checks.append(["a traced repetition completed", bool(traced), f"{len(traced)}"])
    correct = all(ok for _, ok, _ in checks) and failed == 0

    info = machine_info()
    print(f"machine: {json.dumps(info)}")
    print(
        f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
        f"repetitions in {time.monotonic() - started:.1f} s; attempted {attempted} runs, failed {failed}"
    )
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    metrics = {}
    if untraced and (traced or not args.trace) and all(d["runs"] for d in untraced):
        values = end_to_end(untraced, attempted, failed)
        if args.trace:
            layer_values, wrapped = per_layer(untraced, traced)
            values.update(layer_values)
            expected = {
                m["name"].rsplit(".", 1)[0]
                for m in wanted
                if m["name"].endswith((".calls", ".self_s")) and not m["name"].startswith("bench.")
            }
            absent = sorted(n for n in expected if n not in wrapped)
            if absent:
                print(f"absent (no such function, reported as 0): {', '.join(absent)}")
        else:
            for name, (unit, better) in INFO_METRICS.items():
                print(f"metric {name} = {values[name]:.6g} {unit} ({better} is better; not bounded)")
        for m in wanted:
            value = values.get(m["name"], 0)
            metrics[m["name"]] = {"value": value if math.isfinite(value) else None, "unit": m["unit"]}
            better = f"{m['better']} is better; " if "better" in m else ""
            print(f"metric {m['name']} = {value:.6g} {m['unit']} ({better}median of the repetitions)")

    if args.detail:
        with open(args.detail, "w") as f:
            json.dump({"machine": info, "args": vars(args), "reps": reps, "checks": checks, "metrics": metrics}, f)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
