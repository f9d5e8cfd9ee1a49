#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload fig06_exact|fig06_sampled|search_halving
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the simulator and
the workload driver into .bench_build/ (perfbench/CMakeLists.txt). Each
repetition is a fresh driver process with a sweep pool of POOL threads,
so every pass is cold; repetitions continue while another one fits in
--seconds. End-to-end metrics (--trace 0) are medians over untraced
repetitions. --trace 1 alternates untraced and traced repetitions and
prints the per-layer metrics of the traced ones, with tracing overhead.
BENCHMARK.json lists fig06_exact and search_halving; fig06_sampled stays
runnable and is the traced companion of a traced fig06_exact run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when every
output check held, 1 when one failed, 2 on bad arguments or settings.
See perfbench/BENCHMARK.md for the metrics and the checks.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

POOL = 4            # sweep-pool threads of every pass
SETUP_PROBES = 3    # set-up-only processes before each repetition
BUILD_DIR = ".bench_build"
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
CHILD_TIMEOUT_S = 150
WORKLOADS = ("fig06_exact", "fig06_sampled", "search_halving")
KINDS = ("baseline", "fdp", "phantom_fdp", "two_level_fdp",
         "two_level_shift", "confluence", "ideal")
PRESETS = ("oltp_db2", "oltp_oracle", "dss_qry", "media_streaming",
           "web_frontend")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail_usage(msg):
    log(msg)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join("src", "confluence", "cmp.hh")):
        fail_usage("run from the root of a checkout: src/ is missing")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail_usage("configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
           "--target", "perfbench_driver"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail_usage("build failed")


def child_env():
    # Every knob of the simulator's environment stays at its default, so
    # the pool size and trace-cache budget are the recorded ones.
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("CONFLUENCE_", "CFL_"))}


class Rep:
    """One driver process: its record, output files and peak RSS."""

    def __init__(self, record, files, rss_mb):
        self.record = record
        self.files = files
        self.rss_mb = rss_mb


_rep_counter = [0]


def run_driver(workload, seed, *flags):
    _rep_counter[0] += 1
    run_dir = os.path.join(BUILD_DIR, "runs",
                           "%d-%d" % (os.getpid(), _rep_counter[0]))
    os.makedirs(run_dir)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--jobs",
           str(POOL), "--dir", run_dir] + list(flags)
    with open(os.path.join(run_dir, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen(cmd, stdout=err, stderr=err,
                                env=child_env())
        # A blocking wait, so this process does not wake during the pass;
        # the timer kills a hung driver, and wait4 still reaps it.
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        if proc.returncode != 0:
            with open(os.path.join(run_dir, "stderr.txt"), "rb") as f:
                tail = f.read()[-2000:].decode(errors="replace")
            log("driver %s exited %d:\n%s" % (" ".join(flags) or workload,
                                             proc.returncode, tail))
            return None
        with open(os.path.join(run_dir, "record.json")) as f:
            record = json.load(f)
        files = {}
        for name in ("result.txt", "journal.jsonl"):
            path = os.path.join(run_dir, name)
            if os.path.isfile(path):
                with open(path, "rb") as f:
                    files[name] = f.read()
        return Rep(record, files, usage.ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def env_record(args, rep):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sources = sorted(glob.glob("src/**/*.[ch][ch]", recursive=True) +
                     glob.glob("perfbench/*.*"))
    blob = b"".join(p.encode() + open(p, "rb").read() for p in sources)
    commit = None
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    drv = rep.record.get("env", {}) if rep else {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "pool": POOL,
        "cpu_model": cpu,
        "build_type": drv.get("build_type"),
        "lto": drv.get("lto"),
        "trace_cache_budget_mb": drv.get("trace_cache_budget_mb"),
        "scale": drv.get("scale", "default"),
        "cores_per_point": drv.get("cores_per_point"),
        "seed": args.seed,
        "workload": args.workload,
        "commit": commit,
        "source_digest": benchlib.digest(blob),
    }


def output_digest(rep, workload):
    name = "journal.jsonl" if workload == "search_halving" else "result.txt"
    return benchlib.digest(rep.files.get(name, b""))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(reps, setups):
    walls = [r.record["wall_s"] for r in reps]
    points = [r.record["fresh_points"] / r.record["wall_s"] for r in reps]
    minsts = [r.record["sim_insts"] / r.record["wall_s"] / 1e6 for r in reps]
    return {
        "setup_s": setups,
        "wall_s": walls,
        "points_per_s": points,
        "sim_minsts_per_s": minsts,
        "peak_rss_mb": [r.rss_mb for r in reps],
    }


def per_layer(rec, untraced_wall, traced_wall, companion):
    """Per-layer metrics of one traced record. @p companion is the traced
    record of the other fig06 workload at the same seed, or None."""
    spans = rec["spans"]
    c = rec["counters"]
    m = {}

    def dur(s):
        return s["end"] - s["start"]

    def insts(p, which):
        n = p["warmup_insts"] + p["measure_insts"] if which == "all" \
            else p[which]
        return n * p["cores"]

    def ns_per_inst(name, which, key=lambda p: True, of=rec):
        points = of["points"]
        mine = [s for s in of["spans"]
                if s["name"] == name and key(points[s["point"]])]
        t = sum(dur(s) for s in mine)
        n = sum(insts(points[s["point"]], which) for s in mine)
        return 1e9 * t / n if n else 0.0

    m["workloads.synth_s"] = sum(dur(s) for s in spans
                                 if s["name"] == "workloads.synth")
    m["trace.gen_ns_per_inst"] = ns_per_inst("trace.prepare_miss", "all")
    for preset in PRESETS:
        m["trace.gen_ns_per_inst." + preset] = ns_per_inst(
            "trace.prepare_miss", "all",
            lambda p, w=preset: p["workload"] == w)
    for k in ("lookups", "hits", "misses", "bypasses", "peak_bytes"):
        m["trace.cache." + k] = c["trace.cache." + k]
    m["trace.cache.hit_ratio"] = (c["trace.cache.hits"] /
                                  c["trace.cache.lookups"]
                                  if c["trace.cache.lookups"] else 0.0)
    builds = [dur(s) for s in spans if s["name"] == "confluence.build"]
    m["confluence.build_ms"] = 1e3 * benchlib.median(builds) if builds \
        else 0.0
    for kind in KINDS:
        same = (lambda p, k=kind: p["kind"] == k)
        m["confluence.warmup_ns_per_inst." + kind] = ns_per_inst(
            "confluence.warmup", "warmup_insts", same)
        m["confluence.measure_ns_per_inst." + kind] = ns_per_inst(
            "confluence.measure", "measure_insts", same)
        # fig06_exact steps no sampled point; its companion, the sampled
        # grid, gives this layer for all seven kinds.
        sampled_of = (companion if companion is not None and
                      not c["search.sampled_points"] else rec)
        m["confluence.sampled_ns_per_inst." + kind] = ns_per_inst(
            "confluence.sampled", "all", same, sampled_of)
    m.update(rec["model"])

    wall = rec["pass_end"] - rec["pass_start"]
    pool = rec["jobs"]
    point_durs = [dur(s) for s in spans if s["name"] == "sim.point"]
    m["sim.pool_util"] = sum(point_durs) / (wall * pool)
    m["sim.point_s_p50"] = benchlib.median(point_durs)
    m["sim.point_s_max"] = max(point_durs)
    acct = benchlib.pool_accounting(spans, rec["pass_start"],
                                    rec["pass_end"], pool)
    layer_of = {"sim.point": "point", "confluence.build": "build",
                "trace.prepare": "prepare", "trace.prepare_miss": "prepare",
                "confluence.warmup": "warmup",
                "confluence.measure": "measure",
                "confluence.collect": "collect",
                "confluence.sampled": "sampled"}
    for layer in ("point", "build", "prepare", "warmup", "measure",
                  "collect", "sampled"):
        m["sim.self_s." + layer] = sum(
            t for name, t in acct["layers"].items()
            if layer_of.get(name) == layer)
    m["sim.self_s.idle"] = acct["idle"]
    m["sim.accounted_frac"] = acct["accounted"] / acct["capacity"]

    m["sim.sampling.detailed_frac"] = c["sim.sampling.detailed_frac"]
    m["sim.sampling.intervals_per_point"] = \
        c["sim.sampling.intervals_per_point"]
    m["sim.sampling.geomean_rel_err"] = 0.0
    if companion is not None:
        exact, sampled = ((companion, rec) if c["search.sampled_points"]
                          else (rec, companion))
        m["sim.sampling.geomean_rel_err"] = max(
            abs(sampled["model"][key] / exact["model"][key] - 1.0)
            for key in ("model.geomean_speedup." + k for k in KINDS[1:]))
    m["alloc.per_kinst"] = c["alloc.count"] / (rec["sim_insts"] / 1e3)

    n = max(rec["fresh_points"], 1)
    enc = [dur(s) for s in spans if s["name"] == "sweepio.encode"]
    dec = [dur(s) for s in spans if s["name"] == "sweepio.decode"]
    m["sweepio.encode_us_per_point"] = 1e6 * sum(enc) / n
    m["sweepio.decode_us_per_point"] = 1e6 * sum(dec) / n

    def mean_span(name, scale):
        d = [dur(s) for s in spans if s["name"] == name]
        return scale * sum(d) / len(d) if d else 0.0

    m["dispatch.cache.lookup_us"] = mean_span("dispatch.cache.lookup", 1e6)
    m["dispatch.cache.insert_us"] = mean_span("dispatch.cache.insert", 1e6)
    m["dispatch.cache.flush_ms"] = mean_span("dispatch.cache.flush", 1e3)
    m["dispatch.cache.hits"] = c["dispatch.cache.hits"]
    m["dispatch.cache.misses"] = c["dispatch.cache.misses"]

    m["search.eval_s"] = c["search.eval_s"]
    m["search.overhead_s"] = (rec["pass_end"] - rec["pass_begin"] -
                              c["search.eval_s"])
    for k in ("requested_points", "evaluated_points", "exact_points",
              "sampled_points", "rounds"):
        m["search." + k] = c["search." + k]
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m, acct


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 <= args.seed < 2 ** 64 or args.seconds < 1:
        fail_usage("--seed must be in [0, 2^64) and --seconds >= 1")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = benchlib.validate_spec(spec)
    if problems:
        fail_usage("BENCHMARK.json: " + "; ".join(problems))
    nproc = len(os.sched_getaffinity(0))
    if POOL > nproc:
        fail_usage("refusing to run: pool %d exceeds nproc %d, so results "
                   "would not compare with other hosts' runs"
                   % (POOL, nproc))
    build()

    # Repetitions: one more only while it fits in --seconds. Set-up
    # probes go between them, so setup_s samples the whole run too.
    setups = []
    untraced, traced = [], []
    driver_failed = False
    t0 = time.monotonic()
    while True:
        for _ in range(0 if args.trace else SETUP_PROBES):
            rep = run_driver(args.workload, args.seed, "--setup-only")
            if rep is None:
                fail_usage("set-up failed")
            setups.append(rep.record["setup_s"])
        rep = run_driver(args.workload, args.seed)
        if rep is None:
            driver_failed = True
            break
        untraced.append(rep)
        if args.trace:
            rep = run_driver(args.workload, args.seed, "--trace")
            if rep is None:
                driver_failed = True
                break
            traced.append(rep)
        spent = time.monotonic() - t0
        per_round = spent / len(untraced)
        if spent + per_round > args.seconds:
            break
    reps = untraced + traced

    failed = 0
    attempted = 0
    checks = []
    for rep in reps:
        attempted += rep.record["attempted"]
        bad = [c for c in rep.record["checks"] if not c["ok"]]
        if bad:
            failed += rep.record["attempted"]
            checks.append("driver checks failed: %s" % bad[:4])
    if driver_failed:
        checks.append("a driver process failed")
    digests = {output_digest(r, args.workload) for r in reps}
    if len(digests) > 1:
        checks.append("output digests differ across runs: %s"
                      % sorted(digests))
        failed = attempted
    if args.workload == "search_halving":
        bests = {r.record["best"] for r in reps}
        if len(bests) != 1:
            checks.append("search picked different bests: %s"
                          % sorted(bests))
            failed = attempted
    if args.workload == "fig06_exact" and args.seed == 0 and reps:
        ref = run_driver("fig06_exact", 0, "--reference")
        if ref is None or digests != {benchlib.digest(
                ref.files.get("result.txt", b"x"))}:
            checks.append("fig06_exact differs from runTimingSweep")
            failed = attempted

    env = env_record(args, reps[0] if reps else None)
    print("env " + json.dumps(env, sort_keys=True))
    if reps:
        print("output_digest %s" % sorted(digests)[0])
    if args.workload == "search_halving" and reps:
        print("search_best %s" % reps[0].record["best"])

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    if args.trace:
        companion = None
        if args.workload != "search_halving" and traced:
            other = ("fig06_sampled" if args.workload == "fig06_exact"
                     else "fig06_exact")
            rep = run_driver(other, args.seed, "--trace")
            if rep is None or not all(c["ok"] for c in rep.record["checks"]):
                checks.append("companion %s run failed" % other)
            else:
                companion = rep.record
        walls_u = [r.record["wall_s"] for r in untraced]
        walls_t = [r.record["wall_s"] for r in traced]
        per_rep = []
        for rep in traced:
            layer, acct = per_layer(rep.record, benchlib.median(walls_u),
                                    benchlib.median(walls_t), companion)
            if abs(layer["sim.accounted_frac"] - 1.0) > 0.01:
                checks.append("spans plus idle cover %.4f of wall x pool"
                              % layer["sim.accounted_frac"])
                failed = attempted
            per_rep.append(layer)
            print("accounting wall_x_pool_s %.6f layers_s %s idle_s %.6f"
                  % (acct["capacity"], json.dumps(
                      {k: round(v, 6) for k, v in acct["layers"].items()}),
                     acct["idle"]))
        for m in spec["per_layer"]:
            vals = [layer[m["name"]] for layer in per_rep]
            metrics[m["name"]] = benchlib.median(vals) if vals else 0.0
        if per_rep:
            durs = sorted(s["end"] - s["start"]
                          for s in traced[0].record["spans"]
                          if s["name"] == "sim.point")
            tail = benchlib.tail_percentile(len(durs))
            print("point_span_s n=%d p50=%.6f%s max=%.6f" % (
                len(durs), benchlib.median(durs),
                (" p%g=%.6f" % (tail, benchlib.percentile(durs, tail))
                 if tail and tail > 50 else ""), durs[-1]))
        print("trace_overhead untraced_wall_s %.6f traced_wall_s %.6f"
              % (benchlib.median(walls_u) if walls_u else 0.0,
                 benchlib.median(walls_t) if walls_t else 0.0))
    elif untraced:
        series = end_to_end(untraced, setups + [
            r.record["setup_s"] for r in untraced])
        for m in spec["end_to_end"]:
            vals = series[m["name"]]
            q1, q2, q3 = benchlib.quartiles(vals)
            metrics[m["name"]] = q2
            print("%s %.6g %s (median of n=%d, q1 %.6g, q3 %.6g, %s is "
                  "better)" % (m["name"], q2, m["unit"], len(vals), q1, q3,
                               m["better"]))
        print("failed_frac %.6g" % (failed / attempted if attempted
                                    else 1.0))

    for msg in checks:
        log("CHECK FAILED: " + msg)
    correct = not checks and attempted > 0
    print(benchlib.result_line(correct, max(attempted, 1),
                               failed if attempted else 1, metrics, units))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
