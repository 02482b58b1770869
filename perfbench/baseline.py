"""Run the benchmark over several seeds and summarize it.

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/baseline.json

Run from the root of a checkout. For every workload in ``BENCHMARK.json`` it
runs ``run.py`` once per seed with tracing off, then once with tracing on
(first seed). It reports, per end-to-end metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median (the spread). Every bounded metric is steady when its spread is at most
a third of its bound; the exit code is 1 if any is not. With ``--out`` it
stores all of this plus the span table of the median traced repetition, so
later changes can quote deltas against it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) ")


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace, detail=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if detail:
        cmd += ["--detail", detail]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    values = {m.group(1): float(m.group(2)) for m in map(METRIC_LINE.match, lines) if m}
    values.update({name: m["value"] for name, m in result["metrics"].items()})
    return result, values


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        per_seed = []
        for seed in args.seeds:
            _, values = run(workload, seed, seconds, 0)
            per_seed.append(values)
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        summary = {name: summarize([v[name] for v in per_seed]) for name in per_seed[0]}
        entry = {"end_to_end": summary}
        for name, s in summary.items():
            bound = bounds.get(name)
            if bound is None or s["spread"] is None:
                verdict = "not bounded"
            else:
                steady = s["spread"] <= bound / 3
                ok &= steady
                verdict = f"bound {bound}: {'steady' if steady else 'NOT STEADY'}"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload} {name}: median {s['median']:.6g} spread {spread} ({verdict})", flush=True)
        os.makedirs(".perfbench_work", exist_ok=True)
        detail_path = os.path.join(".perfbench_work", f"detail-{workload}.json")
        _, layer = run(workload, args.seeds[0], seconds, 1, detail=detail_path)
        with open(detail_path) as f:
            detail = json.load(f)
        os.remove(detail_path)
        traced = sorted((d for t, d in detail["reps"] if t and d), key=lambda d: d["total_s"])
        rep = traced[(len(traced) - 1) // 2]  # the median traced repetition
        spans = dict(sorted(rep["trace"]["spans"].items(), key=lambda kv: -kv[1]["self_s"]))
        entry["per_layer"] = {m["name"]: layer[m["name"]] for m in spec["per_layer"]}
        entry["traced_repetition"] = {
            "total_s": rep["total_s"],
            "bench_self_s": rep["total_s"] - sum(s["self_s"] for s in spans.values()),
            "spans": spans,
        }
        doc.setdefault("machine", detail["machine"])
        doc["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
