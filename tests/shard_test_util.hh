/** @file Shared helpers for tests that run real confluence_sweep shard
 *  processes through the work queue (CMake defines CFL_SWEEP_BIN). */

#ifndef CFL_TESTS_SHARD_TEST_UTIL_HH
#define CFL_TESTS_SHARD_TEST_UTIL_HH

#include <fstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "dispatch/process.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sweepio/codec.hh"

namespace cfl::test
{

/** A 2x2 grid over @p a and @p b, small enough that a real shard
 *  process takes ~0.1s. */
inline std::vector<SweepPoint>
tinyGrid(WorkloadId a = WorkloadId::DssQry,
         WorkloadId b = WorkloadId::WebFrontend)
{
    RunScale scale;
    scale.timingWarmupInsts = 100'000;
    scale.timingMeasureInsts = 50'000;
    scale.timingCores = 1;
    std::vector<SweepPoint> points;
    for (const FrontendKind kind :
         {FrontendKind::Baseline, FrontendKind::Confluence})
        for (const WorkloadId wl : {a, b})
            points.push_back({kind, wl, scale});
    return points;
}

/** The single-process encoding every dispatch must reproduce. */
inline std::string
referenceBytes(const std::vector<SweepPoint> &points)
{
    SweepEngine engine(1);
    return sweepio::encodeResult(
        runTimingSweep(points, makeSystemConfig(1), engine));
}

/**
 * An executable stand-in for confluence_sweep at @p dir/sweep.sh: it
 * appends its result path to @p dir/runs.log, runs @p body (which sees
 * the sweep's argv; $4 is the result path), then execs the real sweep.
 */
inline std::string
scriptedSweep(const std::string &dir, const std::string &body)
{
    const std::string path = dir + "/sweep.sh";
    {
        std::ofstream out(path);
        out << "#!/bin/sh\n"
            << "echo \"$4\" >> " << dispatch::shellQuote(dir + "/runs.log")
            << "\n"
            << body << "\n"
            << "exec " << dispatch::shellQuote(CFL_SWEEP_BIN)
            << " \"$@\"\n";
    }
    ::chmod(path.c_str(), 0755);
    return path;
}

} // namespace cfl::test

#endif // CFL_TESTS_SHARD_TEST_UTIL_HH
