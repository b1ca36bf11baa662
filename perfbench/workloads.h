#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The three benchmark workloads. One call runs one repetition: build the
 * deployment, preload, run the timed closed loop, power-fail the
 * back-end, recover every session, and verify every acknowledged write
 * against a reference model.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    bool trace = false;     //!< record spans (and span-derived metrics)
    bool smoke = false;     //!< tiny sizes for the self-test
    std::string trace_path; //!< where spans are written at exit, if set
};

using Metrics = std::vector<std::pair<std::string, double>>;

struct RunResult
{
    /** Virtual-time metrics and counts: a pure function of the seed. */
    Metrics virt;
    /** Host wall-clock and process measurements. */
    Metrics host;
    uint64_t attempted = 0; //!< ops issued in the timed phase
    uint64_t failed = 0;    //!< errors + oracle violations + retries
    std::vector<std::string> errors; //!< the first few violations
};

bool knownWorkload(const std::string &name);

RunResult runWorkload(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
