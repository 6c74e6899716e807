"""Helpers the benchmark scripts share; BENCHMARK.json is the one source
of workload and metric names.

    ledger_tool.py BENCHMARK.json workloads
        Print the workload names, space separated.
    ledger_tool.py BENCHMARK.json run-seconds
        Print how long one run measures.
    ledger_tool.py BENCHMARK.json check TRACE < result-line
        Exit 1 unless the JSON result line is correct and reports every
        metric declared for its mode (TRACE 0: end_to_end, 1: per_layer)
        with a finite value.
    ledger_tool.py BENCHMARK.json ab PAIRS.tsv
        Summarize an A/B run (rows: side pair workload digests
        json-line), per workload and end-to-end metric, by the rules in
        README.md, and list the pairs whose digests differ. A run that
        is not correct gives no metrics and loses its pair.
    ledger_tool.py BENCHMARK.json spread [WORKLOAD...]
        Run each workload (default: all) untraced on seeds 0-9 and print
        every run, then per end-to-end metric the median over the ten
        runs and their IQR as a share of it. Exit 1 unless every run is
        correct and every spread is under a third of the metric's
        bound.
"""

import json
import math
import os
import statistics
import subprocess
import sys


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check(spec, trace, line):
    declared = spec["per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        print(f"not a JSON result line: {line[:80]!r}", file=sys.stderr)
        return 1
    problems = [] if result.get("correct") is True else ["not correct"]
    metrics = result.get("metrics", {})
    for m in declared:
        value = metrics.get(m["name"], {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"missing or non-finite {m['name']}")
    extra = set(metrics) - {m["name"] for m in declared}
    problems += [f"undeclared metric {name}" for name in sorted(extra)]
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def ab(spec, path):
    # (workload, side) -> {pair: metrics, or None for a failed run}
    runs = {}
    digests = {}  # (workload, side) -> {pair: digest lines}
    jobs = {}  # (workload, side) -> [failed, attempted]
    with open(path) as f:
        for row in f:
            side, pair, workload, digest, line = row.rstrip("\n").split(
                "\t", 4)
            digests.setdefault((workload, side), {})[pair] = digest
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                result = {"failed": 1, "attempted": 1}
            ok = result.get("correct") is True and bool(result.get("metrics"))
            if not ok:
                print(f"{workload} {side} pair {pair}: no correct result, "
                      "its metrics are left out")
            tally = jobs.setdefault((workload, side), [0, 0])
            tally[0] += result.get("failed", 0)
            tally[1] += result.get("attempted", 0)
            runs.setdefault((workload, side), {})[pair] = (
                result["metrics"] if ok else None)
    for workload in sorted({w for w, _ in runs}):
        parent = runs.get((workload, "parent"), {})
        change = runs.get((workload, "change"), {})
        pairs = sorted(set(parent) & set(change), key=int)
        print(f"\n{workload}: {len(pairs)} pairs")
        if not pairs:
            continue
        differ = [i for i in pairs if digests[(workload, "parent")][i]
                  != digests[(workload, "change")][i]]
        print(f"  simulated results: digests differ in {len(differ)} of "
              f"{len(pairs)} pairs" + (f" (pairs {', '.join(differ)})"
                                       if differ else ""))
        p_failed, p_attempted = jobs[(workload, "parent")]
        c_failed, c_attempted = jobs[(workload, "change")]
        print(f"  failed jobs: parent {p_failed}/{p_attempted}, change "
              f"{c_failed}/{c_attempted}")
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            p = {i: parent[i][name]["value"] for i in pairs if parent[i]}
            c = {i: change[i][name]["value"] for i in pairs if change[i]}
            if not p or not c:
                print(f"  {name:<14} no correct run on one side")
                continue
            p_q1, p_med, p_q3 = quartiles(list(p.values()))
            c_q1, c_med, c_q3 = quartiles(list(c.values()))

            # A failed run loses its pair.
            def win(i):
                if i not in c:
                    return False
                if i not in p:
                    return True
                return c[i] < p[i] if lower else c[i] > p[i]

            wins = sum(win(i) for i in pairs)
            iqr = p_q3 - p_q1
            worse = (c_med - p_med) if lower else (p_med - c_med)
            if c_failed > p_failed:
                verdict = "MORE FAILURES than parent"
            elif wins >= 0.9 * len(pairs) and abs(c_med - p_med) > iqr:
                verdict = "gain"
            elif worse > m["bound"] * abs(p_med):
                verdict = "REGRESSION beyond bound"
            elif iqr > m["bound"] * abs(p_med):
                verdict = "unresolved (parent spread exceeds bound)"
            else:
                verdict = "within bound"
            print(f"  {name:<14} parent {p_med:.6g} [{p_q1:.6g}, "
                  f"{p_q3:.6g}]  change {c_med:.6g} [{c_q1:.6g}, "
                  f"{c_q3:.6g}]  {m['unit']}  change/parent "
                  f"{c_med / p_med:.4f}  wins {wins}/{len(pairs)}  "
                  f"parent IQR {iqr:.6g}  -> {verdict}")
    return 0


def spread(spec, path, workloads):
    run_sh = os.path.join(os.path.dirname(os.path.abspath(path)),
                          "benchmark", "run.sh")
    status = 0
    for workload in workloads or [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in range(10):
            p = subprocess.run(
                ["bash", run_sh, "--workload", workload, "--seed",
                 str(seed), "--trace", "0"], stdout=subprocess.PIPE,
                text=True)
            try:
                result = json.loads(p.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "metrics": {}}
            if p.returncode or not result["correct"]:
                status = 1
            metrics = result["metrics"]
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} correct {result['correct']} "
                  + " ".join(f"{name} {m['value']:.6g}"
                             for name, m in metrics.items()), flush=True)
        for m in spec["end_to_end"]:
            if m["name"] not in values:
                status = 1
                print(f"spread {workload} {m['name']} MISSING", flush=True)
                continue
            q1, median, q3 = quartiles(values[m["name"]])
            share = (q3 - q1) / median
            ok = share < m["bound"] / 3
            status |= not ok
            print(f"spread {workload} {m['name']} median {median:.6g} "
                  f"iqr/median {share:.4f} bound {m['bound']} "
                  f"{'ok' if ok else 'TOO WIDE'}", flush=True)
    return status


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        spec = json.load(f)
    command = argv[2]
    if command == "workloads":
        print(" ".join(w["name"] for w in spec["workloads"]))
        return 0
    if command == "run-seconds":
        print(spec["run_seconds"])
        return 0
    if command == "check" and len(argv) == 4:
        return check(spec, argv[3] != "0", sys.stdin.read().strip())
    if command == "ab" and len(argv) == 4:
        return ab(spec, argv[3])
    if command == "spread":
        return spread(spec, argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
