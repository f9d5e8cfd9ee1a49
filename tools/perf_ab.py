#!/usr/bin/env python3
"""Same-host A/B speed gate over the repo benchmark.

    python3 tools/perf_ab.py BASE_REV

Run from the root of a checkout. The base revision is checked out into a
temporary git worktree under the checkout's .perf_ab/, so both sides
build and run on the same filesystem; this checkout, with any uncommitted
changes, is the head. Each side builds perfbench/ into its own
.bench_build/ with the same compiler. Then pairs of `perfbench/run.py
--seed 0 --seconds 15 --trace 0` runs go back to back for every workload,
alternating which side runs first, so drift on the host hits both sides
alike. It runs at least MIN_PAIRS pairs, and adds pairs until every
workload's 95% interval is no wider than +-HALF_WIDTH or MAX_PAIRS pairs
have run.

For each workload it prints every pair's wall_s (the run's median over
its cold repetitions), the head/base ratio and the 95% t-interval of the
mean paired log ratio, and the median peak_rss_mb of each side. It exits
1 when an interval lies wholly above +5% (a slowdown the pairs can tell
from noise), when the head's median peak_rss_mb exceeds the base's by
more than 5% (RSS spreads under 1% run to run, so no interval is
needed), when any run reports an incorrect result, or when any run exits
non-zero; 2 on bad usage.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "perfbench"))
import benchlib  # noqa: E402

WORKLOADS = ("fig06_exact", "fig06_sampled", "search_halving")
RUN_ARGS = ("--seed", "0", "--seconds", "15", "--trace", "0")
MIN_PAIRS = 5
MAX_PAIRS = 12
HALF_WIDTH = 0.05        # stop adding pairs once every interval is this tight
CXX = "g++-13"
POOL = 4                 # perfbench/run.py's sweep pool
SLOWDOWN_LIMIT = 1.05    # fail when the whole interval lies above this
RSS_LIMIT = 1.05         # fail when head/base median peak RSS exceeds this

# Two-sided 95% Student t quantiles, by degrees of freedom (pairs - 1).
T975 = {4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262,
        10: 2.228, 11: 2.201}


def log(msg):
    print("perf_ab: " + msg, file=sys.stderr, flush=True)


class Run:
    """One run.py invocation: exit code, correctness, wall_s and
    peak_rss_mb."""

    def __init__(self, code, correct, wall_s, rss_mb):
        self.code = code
        self.correct = correct
        self.wall_s = wall_s
        self.rss_mb = rss_mb

    @property
    def ok(self):
        return (self.code == 0 and self.correct and self.wall_s is not None
                and self.rss_mb is not None)


def ratio_interval(ratios):
    """Geometric-mean ratio and its 95% t-interval, from MIN_PAIRS to
    MAX_PAIRS paired head/base ratios."""
    n = len(ratios)
    assert MIN_PAIRS <= n <= MAX_PAIRS
    logs = [math.log(r) for r in ratios]
    mean = statistics.mean(logs)
    half = T975[n - 1] * statistics.stdev(logs) / math.sqrt(n)
    return math.exp(mean), math.exp(mean - half), math.exp(mean + half)


def resolved(pairs):
    """Whether one workload's (base, head) Run pairs, all ok, give an
    interval no wider than +-HALF_WIDTH of the ratio."""
    ratio, lo, hi = ratio_interval([h.wall_s / b.wall_s for b, h in pairs])
    return (hi - lo) / 2 <= HALF_WIDTH * ratio


def collect(run_pair):
    """Run pairs until every workload is resolved, MIN_PAIRS at least and
    MAX_PAIRS at most, or until a run fails, which fails the gate
    whatever follows. run_pair(i) runs pair i of every workload and
    returns {workload: (base Run, head Run)}; the result maps each
    workload to its list of pairs."""
    pairs = {w: [] for w in WORKLOADS}
    for i in range(MAX_PAIRS):
        for w, pair in run_pair(i).items():
            pairs[w].append(pair)
        if not all(b.ok and h.ok for p in pairs.values() for b, h in p):
            break
        if i + 1 >= MIN_PAIRS and all(map(resolved, pairs.values())):
            break
    return pairs


def verdict(pairs):
    """Gate one workload's (base, head) Run pairs. Returns
    (ratio, lo, hi, problems); ratio, lo and hi are None unless every
    run is ok."""
    problems = []
    for i, (base, head) in enumerate(pairs, 1):
        for side, run in (("base", base), ("head", head)):
            if run.code != 0:
                problems.append("pair %d: %s run exited %d"
                                % (i, side, run.code))
            elif not run.correct:
                problems.append("pair %d: %s run was incorrect" % (i, side))
            elif run.wall_s is None:
                problems.append("pair %d: %s run reported no wall_s"
                                % (i, side))
            elif run.rss_mb is None:
                problems.append("pair %d: %s run reported no peak_rss_mb"
                                % (i, side))
    if problems:
        return None, None, None, problems
    ratio, lo, hi = ratio_interval([h.wall_s / b.wall_s for b, h in pairs])
    if lo > SLOWDOWN_LIMIT:
        problems.append("head is slower: wall_s ratio %.4f, 95%% CI "
                        "[%.4f, %.4f] lies above %.2f"
                        % (ratio, lo, hi, SLOWDOWN_LIMIT))
    base_rss, head_rss = rss_medians(pairs)
    if head_rss > RSS_LIMIT * base_rss:
        problems.append("head uses more memory: median peak_rss_mb %.1f "
                        "against %.1f, over %.2fx"
                        % (head_rss, base_rss, RSS_LIMIT))
    return ratio, lo, hi, problems


def rss_medians(pairs):
    """Median peak_rss_mb of the base and of the head runs."""
    return (benchlib.median([b.rss_mb for b, _ in pairs]),
            benchlib.median([h.rss_mb for _, h in pairs]))


def run_side(tree, workload, env):
    """One run.py pass in @p tree; a Run built from its final line."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload] + list(RUN_ARGS),
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        return Run(proc.returncode, bool(result["correct"]),
                   metrics["wall_s"]["value"],
                   metrics["peak_rss_mb"]["value"])
    except (IndexError, KeyError, ValueError):
        return Run(proc.returncode if proc.returncode else 1, False, None,
                   None)


def built_compiler(tree):
    """The compiler recorded in @p tree's perfbench build, or None."""
    try:
        with open(os.path.join(tree, ".bench_build", "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def fmt(run):
    if not run.ok:
        return "FAILED(exit %d, correct %s)" % (run.code, run.correct)
    return "%.3f s %.0f MB" % (run.wall_s, run.rss_mb)


def git(*args):
    return subprocess.run(["git"] + list(args), stdout=subprocess.PIPE,
                          text=True)


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        log("usage: python3 tools/perf_ab.py BASE_REV")
        return 2
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        log("run from the root of a checkout: perfbench/run.py is missing")
        return 2
    nproc = len(os.sched_getaffinity(0))
    if nproc < POOL:
        log("needs at least %d CPUs (perfbench runs a %d-thread pool); "
            "this host has %d" % (POOL, POOL, nproc))
        return 2
    base = git("rev-parse", "--verify", "--quiet",
               sys.argv[1] + "^{commit}").stdout.strip()
    if not base:
        log("unknown revision %r" % sys.argv[1])
        return 2

    env = dict(os.environ)
    if shutil.which(CXX):
        env["CXX"] = CXX
    else:
        log("%s not found; both sides build with the default compiler"
            % CXX)
    head = os.getcwd()
    os.makedirs(".perf_ab", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="base-", dir=".perf_ab")
    worktree = os.path.join(head, scratch, "tree")
    if git("worktree", "add", "--detach", worktree, base).returncode != 0:
        log("git worktree add failed")
        return 2
    def run_pair(i):
        order = ((worktree, head) if i % 2 == 0 else (head, worktree))
        pair = {}
        for w in WORKLOADS:
            runs = {tree: run_side(tree, w, env) for tree in order}
            base_run, head_run = runs[worktree], runs[head]
            pair[w] = (base_run, head_run)
            ratio = ("ratio %.4f" % (head_run.wall_s / base_run.wall_s)
                     if base_run.ok and head_run.ok else "no ratio")
            print("%s pair %d (%s first): base %s, head %s, %s" % (
                w, i + 1, "base" if order[0] == worktree else "head",
                fmt(base_run), fmt(head_run), ratio), flush=True)
        return pair

    try:
        pairs = collect(run_pair)
        compilers = {built_compiler(worktree), built_compiler(head)}
        failed = False
        if len(compilers) != 1:
            log("the two sides were built with different compilers: %s"
                % sorted(map(str, compilers)))
            failed = True
        for w in WORKLOADS:
            ratio, lo, hi, problems = verdict(pairs[w])
            if ratio is not None:
                print("%s: head/base wall_s %.4f, 95%% CI [%.4f, %.4f]; "
                      "median base %.3f s, head %.3f s; median peak RSS "
                      "base %.1f MB, head %.1f MB" % (
                          (w, ratio, lo, hi,
                           benchlib.median([b.wall_s for b, _ in pairs[w]]),
                           benchlib.median([h.wall_s for _, h in pairs[w]]))
                          + rss_medians(pairs[w])))
            for p in problems:
                log("FAIL %s: %s" % (w, p))
            failed |= bool(problems)
        print("perf_ab %s" % ("FAIL" if failed else "PASS"))
        return 1 if failed else 0
    finally:
        git("worktree", "remove", "--force", worktree)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(".perf_ab")
        except OSError:
            pass  # another comparison's worktree is still there


if __name__ == "__main__":
    sys.exit(main())
