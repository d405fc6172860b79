/**
 * @file
 * The benchmark's workloads. A workload is a fixed set of ops that
 * one pass runs once each; the seed only permutes their order (and,
 * for traffic-suite, draws the arrival times), so every pass of every
 * run measures the same work. Each op is one call into a public
 * function of the program's libraries plus an untimed output check.
 */
#ifndef NOL_PERFBENCH_BENCH_HPP
#define NOL_PERFBENCH_BENCH_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/** One timed operation of a pass. */
struct Op {
    std::string kind; ///< unique within the pass
    std::function<void()> run;   ///< the timed call(s)
    std::function<bool()> check; ///< untimed check of the last run
    std::function<std::string()> digest; ///< last run's output digest
};

/** A set-up workload, ready for its first timed op. */
struct Workload {
    std::vector<Op> ops;
    /** Untimed checks spanning a whole pass (run after every op of it
     *  ran); marks the ops whose outputs it rejects. */
    std::function<void(std::vector<bool> &failed)> checkPass =
        [](std::vector<bool> &) {};
    /** Checks made during set-up that failed (counted against the
     *  run's correctness, not against any op). */
    std::vector<std::string> setupFailures;
    /** Everything one pass contains besides its op kinds: for
     *  traffic-suite, the sessions of the open-loop trace. */
    std::vector<std::string> contents;
};

/** Metrics by name: value and unit. */
struct Metric {
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Set up workload @p name for @p seed; nullptr if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed);

/** Median of @p values (mean of the middle two; 0 when empty). */
double median(std::vector<double> values);

/** Seed-derived permutation of a pass's @p n ops. */
std::vector<size_t> passOrder(uint64_t seed, uint64_t pass, size_t n);

/**
 * Layer probes of the traced run. Each records spans on @p tracer,
 * fills its metrics and returns a description of every output check
 * that failed.
 */
std::vector<std::string> probeCompileLayers(Tracer &tracer,
                                            Metrics &metrics);
std::vector<std::string> probePaperLayers(Tracer &tracer, Metrics &metrics);
std::vector<std::string> probeTrafficLayers(Tracer &tracer,
                                            Metrics &metrics,
                                            uint64_t seed);

/** Load (compiling where missing) every native artifact a measured
 *  run can use, into the current artifact cache directory. Returns the
 *  number of modules prepared. */
size_t fillArtifactCache();

/** Milliseconds spent in codegen::getOrCompile for every module of the
 *  traffic suite, against the current artifact cache directory: host
 *  `cc` plus dlopen when the directory is empty, dlopen when warm. */
double timeArtifactLoads();

} // namespace perfbench

#endif // NOL_PERFBENCH_BENCH_HPP
