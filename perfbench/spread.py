#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload online_score --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
Run it from the root of the checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    secs = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for s in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(s),
                                  "--seconds", str(secs), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stderr}")
        lines = out.stdout.strip().splitlines()
        prov = json.loads(lines[-2])["provenance"]
        res = json.loads(lines[-1])
        # Steal: the share of the host's CPU time the hypervisor gave to
        # other machines during the timed phase.
        steal = prov.get("host_steal_frac")
        steal = "n/a" if steal is None else f"{steal:.3f}"
        print(f"seed {s}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              f"host_steal={steal} problems={prov.get('problems')}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, m in (prov.get("ungated_metrics") or {}).items():
            values.setdefault(name + " (ungated)", []).append(m["value"])
    for name, xs in sorted(values.items()):
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        b = bounds.get(name)
        print(f"{name:40s} median {med:14.4f}  iqr/median {spread:7.4f}  bound {b}  values {[round(x, 4) for x in xs]}")


if __name__ == "__main__":
    main()
