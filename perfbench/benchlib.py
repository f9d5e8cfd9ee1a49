"""Helpers of the repo benchmark: statistics, digests, name validation and
the analysis of a traced pass's spans. Pure functions, tested by
test_benchlib.py; run.py does the process handling."""

import hashlib
import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

# Candidate percentiles for a tail figure, highest last.
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail_percentile(n):
    """The highest of TAIL_PERCENTILES that has at least ten of @p n
    samples beyond it, or None when even the median has fewer."""
    best = None
    for p in TAIL_PERCENTILES:
        # 1e-9 absorbs the rounding of 100 - 99.9.
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank percentile of @p values."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def digest(data):
    """16 hex digits of SHA-256 over @p data (bytes)."""
    return hashlib.sha256(data).hexdigest()[:16]


def validate_spec(spec):
    """Problems with a parsed BENCHMARK.json, as a list of strings."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        return ["top-level keys must be exactly %s" % sorted(keys)]
    cmd = spec["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32 or
            not all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be 1..32 strings of <= 200 chars")
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths must list 1..16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.match(p) or
                    p.startswith("/") or ".." in p.split("/")):
                problems.append("bad path %r" % (p,))
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        problems.append("run_seconds must be a whole number in 1..60")
    names = set()

    def check_name(name):
        if not isinstance(name, str) or not NAME_RE.match(name):
            problems.append("bad name %r" % (name,))
        elif name in names:
            problems.append("duplicate name %r" % (name,))
        names.add(name)

    wls = spec["workloads"]
    if not isinstance(wls, list) or not 2 <= len(wls) <= 8:
        problems.append("workloads must list 2..8 entries")
        wls = []
    for w in wls:
        if set(w) != {"name", "why"}:
            problems.append("workload keys must be name, why")
            continue
        check_name(w["name"])
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or \
                "\n" in why:
            problems.append("bad why for %r" % (w["name"],))
    for section, lo, hi, bounded in (("end_to_end", 1, 16, True),
                                     ("per_layer", 1, 128, False)):
        metrics = spec[section]
        if not isinstance(metrics, list) or not lo <= len(metrics) <= hi:
            problems.append("%s must list %d..%d metrics" % (section, lo, hi))
            continue
        for m in metrics:
            want = {"name", "unit", "better"} | ({"bound"} if bounded
                                                 else set())
            if set(m) != want:
                problems.append("%s keys must be %s" % (section,
                                                        sorted(want)))
                continue
            check_name(m["name"])
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                problems.append("bad unit %r" % (m["unit"],))
            if m["better"] not in ("higher", "lower"):
                problems.append("better must be higher or lower")
            if bounded:
                b = m["bound"]
                if (not isinstance(b, (int, float)) or isinstance(b, bool)
                        or not 0 < b <= 0.25):
                    problems.append("bound of %r must be in (0, 0.25]"
                                    % (m["name"],))
    e2e = {m.get("name"): m for m in spec["end_to_end"]
           if isinstance(m, dict)}
    setup = e2e.get("setup_s")
    if not setup or setup.get("unit") != "s" or \
            setup.get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json exceeds 64 KiB")
    return problems


def result_line(correct, attempted, failed, metrics, units):
    """The final output line: exactly correct/attempted/failed/metrics,
    each metric with its unit."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


# ---------------------------------------------------------------------------
# Span analysis of one traced pass
# ---------------------------------------------------------------------------

def self_times(spans):
    """Map span id -> self time (duration minus the time covered by
    its direct children)."""
    child_time = {}
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0) +
                                       s["end"] - s["start"])
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in spans}


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def pool_accounting(spans, pass_start, pass_end, pool):
    """Self time per layer on the pool's workers, plus pool idle.

    Pool workers are the threads that ran points. Idle is the part of
    (pass_end - pass_start) x pool that no top-level span on a pool
    worker covers; 'accounted' is the sum of every layer's self time
    plus idle, which equals wall x pool when the span tree is sound
    (spans nest, do not overlap on one thread, and lie in the pass)."""
    wall = pass_end - pass_start
    workers = {s["worker"] for s in spans if s["name"] == "sim.point"}
    selfs = self_times(spans)
    layers = {}
    busy = 0.0
    for w in workers:
        mine = [s for s in spans if s["worker"] == w]
        for s in mine:
            layers[s["name"]] = layers.get(s["name"], 0.0) + selfs[s["id"]]
        busy += _union_length(
            (max(s["start"], pass_start), min(s["end"], pass_end))
            for s in mine if not s["parent"] and s["end"] > pass_start
            and s["start"] < pass_end)
    idle = wall * pool - busy
    accounted = sum(layers.values()) + idle
    return {"layers": layers, "idle": idle, "accounted": accounted,
            "capacity": wall * pool, "workers": len(workers)}
