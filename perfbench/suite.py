#!/usr/bin/env python3
"""The FAIR-BFL benchmark: four round workloads, end to end and per layer.

One timed run of one workload (the command BENCHMARK.json names):

    python3 perfbench/suite.py --workload train_heavy --seed 42 \\
        --seconds 20 --trace 0

runs untraced passes of the workload until --seconds have passed (at
least five), prints every metric with its unit, and ends with one JSON
line {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

The whole suite, every workload interleaved pass-major so host drift hits
all of them alike, with a result file (default perfbench/results/latest.json);
--trace 1 adds the per-layer breakdown:

    python3 perfbench/suite.py [--trace 1] [--seed 42] [--repeat 1]
                               [--out FILE]

Verdicts per (workload, end-to-end metric) between two result files,
using the bounds in BENCHMARK.json:

    python3 perfbench/suite.py --compare BASE.json NEW.json

Offline unit tests of the statistics and verdicts:

    python3 perfbench/suite.py --self-test

Every mode that measures first builds perfbench/bench_suite.cpp, and the
library through the root CMakeLists.txt, into .bench_build/ (incremental
after the first build).  Exit status is non-zero when the build fails, a
pass crashes or disagrees with another pass of the same seed, any round
fails its checks, or a comparison finds a regression or an unresolved row.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
RESULTS_DIR = ROOT / "perfbench" / "results"

# Rounds per untraced pass; the first WARMUP (shard packing, index-cache
# fill) are excluded, leaving 100 measured rounds so p90 has 10 samples
# beyond it.
ROUNDS = 103
WARMUP = 3
TRACED_ROUNDS = 23
MIN_PASSES = 5
# Set-up-only processes run beside each untraced pass.  A cold set-up of
# ~0.1 s scatters by +-20% from process to process, so setup_s takes the
# median over these and the passes' own set-ups (15 samples in 5 passes).
SETUPS_PER_PASS = 2
# The program defaults are what gets measured: telemetry off in untraced
# passes (the bench switches it), the bit-pinned scalar kernels, default
# logging.
STRIPPED_ENV = ("FAIRBFL_TELEMETRY", "FAIRBFL_KERNELS", "FAIRBFL_LOG")
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The build or a bench_suite process failed."""


# --- Statistics -----------------------------------------------------------

def percentile(values, q):
    """q-th percentile, linear between closest ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def per_index_minima(series):
    """Fastest pass of each round index.  Passes repeat identical work, so
    an index's fastest reading is the one the host disturbed least, while
    real round-to-round variation (re-settled rounds, say) is the same in
    every pass and survives."""
    return [min(column) for column in zip(*series)]


def quartile_spread(values):
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


# --- Running bench_suite ----------------------------------------------------

def child_env():
    return {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}


def build():
    """Configures and builds bench_suite (both incremental); returns its
    path."""
    steps = [["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "--target", "bench_suite",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850, check=False)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(step))
    return BUILD_DIR / "bench_suite"


def run_bench(binary, *args):
    """Runs bench_suite and returns the JSON object it prints last."""
    done = subprocess.run([str(binary), *args], capture_output=True,
                          text=True, env=child_env(),
                          timeout=PASS_TIMEOUT_S, check=False)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("bench_suite %s exited %d" %
                         (" ".join(args), done.returncode))
    return json.loads(lines[-1])


def run_pass(binary, workload, seed, traced=False):
    rounds = TRACED_ROUNDS if traced else ROUNDS
    args = ["--workload=" + workload, "--seed=%d" % seed,
            "--rounds=%d" % rounds]
    if traced:
        args.append("--trace")
    return run_bench(binary, *args)


def run_setups(binary, workload, seed):
    """Set-up seconds of SETUPS_PER_PASS set-up-only processes."""
    return [run_bench(binary, "--workload=" + workload, "--seed=%d" % seed,
                      "--rounds=0")["setup_s"]
            for _ in range(SETUPS_PER_PASS)]


# --- Turning passes into metrics --------------------------------------------

def check_passes(passes, crashed=0, rounds=ROUNDS):
    """Correctness of one workload's passes: (correct, attempted, failed,
    problems).  A crashed pass counts all of its rounds as failed."""
    problems = []
    attempted = crashed * rounds
    failed = crashed * rounds
    for p in passes:
        attempted += len(p["round_s"])
        failed += len(p["failures"])
        problems.extend(p["failures"])
    if crashed:
        problems.append("%d pass(es) crashed" % crashed)
    # Passes of one seed do identical work, so they must end identically.
    for mode in ("pass", "traced"):
        digests = {p["digest"] for p in passes if p["mode"] == mode}
        if len(digests) > 1:
            problems.append("%s passes disagree: %s" %
                            (mode, ", ".join(sorted(digests))))
    correct = not problems and attempted > 0
    return correct, attempted, failed, problems


def e2e_metrics(passes, setups=()):
    """The end-to-end metrics of one workload's untraced passes; `setups`
    are extra set-up samples from set-up-only processes."""
    per_index = per_index_minima([p["round_s"][WARMUP:] for p in passes])
    participants = passes[0]["participants"][WARMUP:]
    return {
        "setup_s": statistics.median([p["setup_s"] for p in passes] +
                                     list(setups)),
        "round_p50_s": percentile(per_index, 50),
        "round_p90_s": percentile(per_index, 90),
        "updates_per_s": sum(participants) / sum(per_index),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024.0,
    }


def layer_rounds(traced_pass):
    """Per-round layer readings of one traced pass, with derived fields."""
    rows = []
    for row in traced_pass["layers"][WARMUP:]:
        row = dict(row)
        stages = (row["local_s"] + row["cluster_s"] + row["aggregate_s"] +
                  row["mine_s"])
        row["unattributed_s"] = row["round_s"] - stages
        row["unattributed_share"] = row["unattributed_s"] / row["round_s"]
        row["local_parallelism"] = (row["local_client_sum_s"] / row["local_s"]
                                    if row["local_s"] > 0 else 0.0)
        rows.append(row)
    return rows


def layer_metrics(traced, probe, calibration, untraced):
    """The per-layer metrics of one workload: busy time, self time and
    calls from the traced passes (per-round p50), behaviour counters from
    the untraced passes, probe medians, and the derived residual and
    overhead rows."""
    rounds = [layer_rounds(p) for p in traced]

    def p50(field):
        return percentile(per_index_minima(
            [[row[field] for row in rows] for rows in rounds]), 50)

    def total(field):
        return sum(row[field] for row in rounds[0])

    first = untraced[0]
    measured = slice(WARMUP, None)
    # Like with like: the minimum over k passes falls as k grows, so the
    # untraced reference uses as many passes as the traced side has.
    untraced_p50 = e2e_metrics(untraced[:len(traced)])["round_p50_s"]
    probes = {name: reading["p50_s"]
              for name, reading in probe["probes"].items()}
    upload_each = (probes["crypto.sign"] + probes["crypto.verify"] +
                   probes["crypto.encrypt"] + probes["crypto.decrypt"])
    predicted = first["clients"] * upload_each if first["key_bits"] else 0.0
    builds = total("index_build_calls")
    return {
        "core.round_s": p50("round_s"),
        "core.unattributed_s": p50("unattributed_s"),
        "core.unattributed_share": p50("unattributed_share"),
        "core.engine_events": p50("engine_events"),
        "core.engine_event_s": p50("engine_event_s"),
        "core.useful_update_ratio": (sum(first["useful_updates"][measured]) /
                                     sum(first["selected"][measured])),
        "core.late_updates": statistics.mean(first["late_updates"][measured]),
        "core.sim_delay_s": statistics.mean(first["sim_delay_s"][measured]),
        "fl.final_accuracy": first["final_accuracy"],
        "fl.local_s": p50("local_s"),
        "fl.local_client_calls": p50("local_client_calls"),
        "fl.local_client_p50_s": p50("local_client_p50_s"),
        "fl.local_parallelism": p50("local_parallelism"),
        "fl.aggregate_s": p50("aggregate_s"),
        "fl.aggregate_calls": p50("aggregate_calls"),
        "fl.train_one_probe_s": probes["fl.train_one"],
        "cluster.stage_s": p50("cluster_s"),
        "cluster.identify_calls": p50("identify_calls"),
        "cluster.index_build_s": p50("index_build_s"),
        "cluster.index_build_calls": p50("index_build_calls"),
        "cluster.scan_s": p50("scan_s"),
        "cluster.index_reuse_ratio": (total("index_reuse") / builds
                                      if builds else 0.0),
        "cluster.index_peak_bytes": max(row["index_bytes"]
                                        for rows in rounds for row in rows),
        "cluster.index_build_probe_s": probes["cluster.index_build"],
        "incentive.identify_probe_s": probes["incentive.identify"],
        "incentive.detection_rate": statistics.mean(
            first["detection_rate"][measured]),
        "chain.mine_s": p50("mine_s"),
        "chain.tx_encode_probe_s": probes["chain.tx_encode"],
        "chain.seal_probe_s": probes["chain.seal"],
        "chain.submit_probe_s": probes["chain.submit"],
        "crypto.keygen_probe_s": probes["crypto.keygen"],
        "crypto.sign_probe_s": probes["crypto.sign"],
        "crypto.verify_probe_s": probes["crypto.verify"],
        "crypto.encrypt_probe_s": probes["crypto.encrypt"],
        "crypto.decrypt_probe_s": probes["crypto.decrypt"],
        "crypto.upload_predicted_s": predicted,
        "crypto.upload_residual_s": p50("unattributed_s") - predicted,
        "support.effective_parallelism": calibration["effective_parallelism"],
        "telemetry.overhead_ratio": p50("round_s") / untraced_p50 - 1.0,
    }


# --- Reporting ----------------------------------------------------------------

def load_benchmark():
    with open(BENCHMARK_FILE, encoding="utf-8") as f:
        return json.load(f)


def units(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    return {m["name"]: m["unit"] for m in metrics}


def print_metrics(title, metrics, unit_of, out=sys.stdout):
    print(title, file=out)
    for name, value in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit_of[name]), file=out)


def read_cache(key):
    try:
        with open(BUILD_DIR / "CMakeCache.txt", encoding="utf-8") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def first_line(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=30, check=False, cwd=ROOT)
    except OSError:
        return "unknown"
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else "unknown"


def host_block(sample_pass, calibration, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = read_cache("CMAKE_CXX_COMPILER")
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "pool_threads": sample_pass["pool_threads"],
        "effective_parallelism": (calibration or {}).get(
            "effective_parallelism"),
        "kernels": sample_pass["kernels"],
        "compiler": compiler + " (" + first_line([compiler, "--version"]) + ")",
        "build_type": read_cache("CMAKE_BUILD_TYPE"),
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
        "telemetry": sample_pass["telemetry"],
        "seed": seed,
    }


# --- Modes -------------------------------------------------------------------

def run_one(args, spec):
    """One timed run of one workload: the BENCHMARK.json command."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError("unknown workload %r (known: %s)" %
                         (args.workload, ", ".join(names)))
    binary = build()
    start = time.monotonic()
    passes, traced, setups, crashed = [], [], [], 0
    probe = calibration = None
    if args.trace:
        probe = run_bench(binary, "--probe", "--workload=" + args.workload,
                          "--seed=%d" % args.seed)
        calibration = run_bench(binary, "--calibrate")
    while (time.monotonic() - start < args.seconds or
           len(passes) < (1 if args.trace else MIN_PASSES)):
        try:
            passes.append(run_pass(binary, args.workload, args.seed))
            if args.trace:
                traced.append(run_pass(binary, args.workload, args.seed,
                                       traced=True))
            else:
                setups += run_setups(binary, args.workload, args.seed)
        except BenchError as e:
            print(e, file=sys.stderr)
            crashed += 1
            if crashed >= MIN_PASSES:
                break
    correct, attempted, failed, problems = check_passes(
        passes + traced, crashed)
    if probe is not None:
        problems.extend(probe["failures"])
        correct = correct and not probe["failures"]
    for problem in problems:
        print("problem:", problem, file=sys.stderr)

    unit_of = units(spec)
    metrics = {}
    if passes and (not args.trace or traced):
        metrics = (layer_metrics(traced, probe, calibration, passes)
                   if args.trace else e2e_metrics(passes, setups))
        print("host: " + json.dumps(host_block(passes[0], calibration,
                                               args.seed)))
        print_metrics("%s seed %d: %d untraced + %d traced passes, %.1f s" %
                      (args.workload, args.seed, len(passes), len(traced),
                       time.monotonic() - start), metrics, unit_of)
    else:
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_suite(args, spec):
    """Every workload, interleaved pass-major; writes a result file."""
    names = [w["name"] for w in spec["workloads"]]
    unit_of = units(spec)
    binary = build()
    calibration = run_bench(binary, "--calibrate")
    runs, all_correct, sample = [], True, None
    for repeat in range(args.repeat):
        passes = {name: [] for name in names}
        setups = {name: [] for name in names}
        crashed = {name: 0 for name in names}
        for _ in range(MIN_PASSES):
            for name in names:
                try:
                    passes[name].append(run_pass(binary, name, args.seed))
                    setups[name] += run_setups(binary, name, args.seed)
                except BenchError as e:
                    print(e, file=sys.stderr)
                    crashed[name] += 1
        run = {}
        for name in names:
            correct, attempted, failed, problems = check_passes(
                passes[name], crashed[name])
            all_correct = all_correct and correct
            entry = {"correct": correct, "attempted": attempted,
                     "failed": failed, "problems": problems}
            if passes[name]:
                sample = sample or passes[name][0]
                entry["metrics"] = e2e_metrics(passes[name], setups[name])
                print_metrics("run %d/%d  %s" % (repeat + 1, args.repeat,
                                                 name),
                              entry["metrics"], unit_of)
            for problem in problems:
                print("problem:", name, problem, file=sys.stderr)
            run[name] = entry
        runs.append(run)
    if sample is None:
        raise BenchError("no pass completed")

    result = {
        "schema": 1,
        "host": host_block(sample, calibration, args.seed),
        "passes": MIN_PASSES,
        "rounds": ROUNDS,
        "warmup": WARMUP,
        "runs": runs,
    }
    if args.trace:
        result["layers"], result["probes"] = {}, {}
        for name in names:
            if not all("metrics" in run[name] for run in runs):
                continue
            probe = run_bench(binary, "--probe", "--workload=" + name,
                              "--seed=%d" % args.seed)
            # The untraced reference runs right beside the traced pass, so
            # host drift since the passes above stays out of the overhead.
            reference = run_pass(binary, name, args.seed)
            traced = run_pass(binary, name, args.seed, traced=True)
            correct, _, _, problems = check_passes([reference, traced])
            problems += probe["failures"]
            all_correct = all_correct and correct and not probe["failures"]
            for problem in problems:
                print("problem:", name, "traced", problem, file=sys.stderr)
            result["layers"][name] = layer_metrics([traced], probe,
                                                   calibration, [reference])
            result["probes"][name] = probe["probes"]
            print_metrics("traced  " + name, result["layers"][name], unit_of)

    out = Path(args.out) if args.out else RESULTS_DIR / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", out)
    return 0 if all_correct else 1


# --- Compare -----------------------------------------------------------------

def verdict(base, new, bound, better):
    """choosing-metrics verdict of one (workload, metric) row.

    regression  -- the new median is worse than the base median by more
                   than `bound` (a share of the base median);
    unresolved  -- otherwise, the run-to-run spread (quartile distance of
                   either side, as a share of the base median) exceeds the
                   bound, unless every new run beats every base run;
    improved    -- the new side wins at least 9/10 of the run pairs (ties
                   count for neither) and the medians differ by more than
                   the base runs' quartile distance;
    unchanged   -- anything else.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    scale = abs(base_median) or 1.0
    worse = sign * (new_median - base_median) / scale
    spread = max(quartile_spread(base), quartile_spread(new)) / scale
    every_run_better = all(sign * (n - b) < 0 for n in new for b in base)
    if worse > bound:
        return "regression"
    if spread > bound and not every_run_better:
        return "unresolved"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if (pairs and wins >= 0.9 * len(pairs) and
            sign * (base_median - new_median) > quartile_spread(base)):
        return "improved"
    return "unchanged"


def compare(base, new, spec):
    """Rows (workload, metric, base median, new median, verdict)."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        base_runs = [run[workload] for run in base["runs"]]
        new_runs = [run[workload] for run in new["runs"]]
        base_failed = sum(r["failed"] for r in base_runs)
        new_failed = sum(r["failed"] for r in new_runs)
        if new_failed > base_failed or not all(r["correct"] for r in new_runs):
            rows.append((workload, "failed", base_failed, new_failed,
                         "regression"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name] for r in base_runs if "metrics" in r]
            n = [r["metrics"][name] for r in new_runs if "metrics" in r]
            if not b or not n:
                rows.append((workload, name, None, None, "unresolved"))
                continue
            rows.append((workload, name, statistics.median(b),
                         statistics.median(n),
                         verdict(b, n, metric["bound"], metric["better"])))
    return rows


def run_compare(args, spec):
    with open(args.compare[0], encoding="utf-8") as f:
        base = json.load(f)
    with open(args.compare[1], encoding="utf-8") as f:
        new = json.load(f)
    rows = compare(base, new, spec)
    print("%-18s %-16s %14s %14s %8s  %s" %
          ("workload", "metric", "base", "new", "change", "verdict"))
    for workload, name, b, n, result in rows:
        change = ("%+7.2f%%" % (100.0 * (n - b) / abs(b))
                  if b not in (None, 0) and n is not None else "       -")
        print("%-18s %-16s %14.6g %14.6g %8s  %s" %
              (workload, name, b if b is not None else float("nan"),
               n if n is not None else float("nan"), change, result))
    bad = [r for r in rows if r[4] in ("regression", "unresolved")]
    return 1 if bad else 0


# --- Entry point -------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--workload", help="one timed run of this workload")
    parser.add_argument("--seed", type=int, default=42,
                        help="workload seed (7 is held out for claims)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics (suite: added to the "
                             "end-to-end ones)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: invocations recorded in the result file")
    parser.add_argument("--out", help="suite: result file path")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        import unittest
        import selftest
        tests = unittest.defaultTestLoader.loadTestsFromModule(selftest)
        ok = unittest.TextTestRunner(verbosity=2).run(tests).wasSuccessful()
        return 0 if ok else 1
    try:
        spec = load_benchmark()
        if args.compare:
            return run_compare(args, spec)
        if args.workload:
            return run_one(args, spec)
        return run_suite(args, spec)
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        print("suite.py:", e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
