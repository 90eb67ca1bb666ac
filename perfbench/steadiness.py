#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs the command in BENCHMARK.json on every workload once per seed (the
workloads interleaved, so drift in the host's speed hits all of them
alike) and records every metric. Each metric's spread is the distance
between the first and third quartile of its values as a share of their
median; every spread, `setup_s`'s included, must stay within the
metric's bound. Given two batches run apart in time, it also reports how
far the second batch's median moved from the first's, in the metric's
worse direction, against the metric's bound.

Run from the repository root:

    # two batches at ten seeds each, some minutes apart:
    python3 perfbench/steadiness.py run --seeds 1-10 --out batch_1.json
    python3 perfbench/steadiness.py run --seeds 11-20 --out batch_2.json
    # ten repeats at the default seed, so that only the host varies:
    python3 perfbench/steadiness.py run --seeds 20120910 --repeat 10 --out fixed_seed.json
    python3 perfbench/steadiness.py report batch_1.json batch_2.json fixed_seed.json --md perfbench/STEADINESS.md
    python3 perfbench/steadiness.py heldout --seed 424242 --out heldout.json

`report` compares the medians of the first two batches; any further
batch is summarised on its own. `heldout` runs every workload once
untraced and once traced at one seed and checks that each run is correct
and prints exactly the metric names and units that BENCHMARK.json
declares.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    # Per-pass times, as the benchmark prints them to stderr.
    result["passes_s"] = [float(l.split()[-2]) for l in proc.stderr.splitlines() if " pass " in l and l.endswith(" s")]
    return result


def cmd_run(args):
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    batch = {
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": bench["run_seconds"],
        "runs": [],
    }
    for seed in [s for s in parse_seeds(args.seeds) for _ in range(args.repeat)]:
        for w in workloads:
            r = run_once(bench, w, seed, False)
            batch["runs"].append({"workload": w, "seed": seed, **r})
            values = {k: round(v["value"], 6) for k, v in r["metrics"].items()}
            print(f"{w} seed {seed}: correct={r['correct']} wall={r['wall_s']:.1f}s {values}", flush=True)
    batch["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(args.out, "w") as f:
        json.dump(batch, f, indent=1)


def summarize(runs, workload, metric):
    values = [r["metrics"][metric]["value"] for r in runs if r["workload"] == workload]
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def cmd_report(args):
    bench = load_benchmark()
    batches = []
    for path in args.batches:
        with open(path) as f:
            batches.append(json.load(f))
    workloads = [w["name"] for w in bench["workloads"]]
    rows = []
    ok = True
    for w in workloads:
        for m in bench["end_to_end"]:
            stats = [summarize(b["runs"], w, m["name"]) for b in batches]
            if any(s is None for s in stats):
                continue
            gap = None
            if len(stats) >= 2:
                a, b = stats[0]["median"], stats[1]["median"]
                worse = (b - a) if m["better"] == "lower" else (a - b)
                gap = worse / a if a else 0.0
            spreads_ok = [s["spread"] <= m["bound"] for s in stats]
            gap_ok = gap is None or gap <= m["bound"]
            ok = ok and all(spreads_ok) and gap_ok
            rows.append((w, m, stats, gap, spreads_ok, gap_ok))
    lines = [
        "# Steadiness of the end-to-end metrics",
        "",
        f"Generated by `python3 perfbench/steadiness.py report`. Host: `nproc` = {batches[0]['nproc']}, "
        f"{batches[0]['machine']}; run_seconds = {batches[0]['run_seconds']}.",
        "",
    ]
    for i, b in enumerate(batches):
        seeds = sorted({r["seed"] for r in b["runs"]})
        per_workload = len(b["runs"]) // len({r["workload"] for r in b["runs"]})
        seed_text = f"seeds {seeds[0]}..{seeds[-1]}" if len(seeds) > 1 else f"seed {seeds[0]} every run"
        lines.append(f"- Batch {i + 1}: {b['started']} to {b['finished']}, {seed_text} "
                     f"({per_workload} runs per workload).")
    yes_no = lambda good: "yes" if good else "**no**"
    lines += [
        "",
        "Spread = (Q3 − Q1) / median over the batch's runs. Gap = how far batch 2's median moved from "
        "batch 1's in the metric's worse direction, as a share of batch 1's median (negative = better). "
        "A metric passes when each of its spreads and its gap stay within its bound; `setup_s` is held to "
        "the same rule as every other metric.",
        "",
        f"Verdict: {'every spread and gap is within its bound' if ok else 'some spread or gap exceeds its bound (marked **no**)'}.",
        "",
        "| workload | metric | bound | batch | median | Q1 | Q3 | spread | spread within bound | gap | gap within bound |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for w, m, stats, gap, spreads_ok, gap_ok in rows:
        for i, s in enumerate(stats):
            gap_cells = f"{gap:+.4f} | {yes_no(gap_ok)}" if (gap is not None and i == 1) else " | "
            lines.append(
                f"| {w} | {m['name']} ({m['unit']}) | {m['bound']} | {i + 1} | {s['median']:.6g} | "
                f"{s['q1']:.6g} | {s['q3']:.6g} | {s['spread']:.4f} | {yes_no(spreads_ok[i])} | {gap_cells} |"
            )
    text = "\n".join(lines) + "\n"
    if args.md:
        with open(args.md, "w") as f:
            f.write(text)
    print(text)
    return 0 if ok else 1


def cmd_heldout(args):
    bench = load_benchmark()
    ok = True
    runs = []
    for w in [w["name"] for w in bench["workloads"]]:
        for trace, declared in [(False, bench["end_to_end"]), (True, bench["per_layer"])]:
            r = run_once(bench, w, args.seed, trace)
            runs.append({"workload": w, "seed": args.seed, "trace": int(trace), **r})
            want = [(m["name"], m["unit"]) for m in declared]
            got = [(k, v["unit"]) for k, v in r["metrics"].items()]
            good = r["correct"] and r["failed"] == 0 and got == want
            ok = ok and good
            shown = {k: round(v["value"], 6) for k, v in r["metrics"].items()} if not trace else {
                k: round(r["metrics"][k]["value"], 6) for k in ("cluster.replay.count_gap", "trace_overhead_frac")}
            print(f"{w} seed {args.seed} trace {int(trace)}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} catalogue={'ok' if got == want else 'MISMATCH'} "
                  f"wall={r['wall_s']:.1f}s {shown}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "ok": ok, "runs": runs}, f, indent=1)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run one batch")
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    r.add_argument("--repeat", type=int, default=1, help="runs per seed (default 1)")
    r.add_argument("--workloads", help="comma-separated subset (default: all)")
    r.add_argument("--out", required=True)
    s = sub.add_parser("report", help="summarize one or two batches")
    s.add_argument("batches", nargs="+")
    s.add_argument("--md", help="also write the markdown table here")
    h = sub.add_parser("heldout", help="check one held-out seed, untraced and traced")
    h.add_argument("--seed", type=int, required=True)
    h.add_argument("--out", help="also write the runs here as JSON")
    args = p.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    if args.cmd == "heldout":
        return cmd_heldout(args)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
