/**
 * @file
 * The benchmark binary. perfbench/run.py builds it and runs it; run
 * directly it takes
 *
 *   nol_perfbench --codegen-dir DIR [--mode MODE] [--workload NAME]
 *                 [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
 *
 * Modes:
 *  - measure (default): set up the workload, run whole passes for S
 *    seconds and print one JSON line with the end-to-end metrics, or
 *    with --trace 1 the per-layer metrics of a traced run (passes for
 *    at most 20 s, then every layer probe; its spans go to
 *    OUT-DIR/trace-NAME-seedN.json as Chrome trace events).
 *  - setup: set up the workload and print when it became ready.
 *  - fill-cache: compile every native artifact a run can load.
 *  - artifact-load: time loading the traffic suite's artifacts.
 *  - describe: print one pass's op kinds and contents, unrun.
 *  - digests: run one pass and print each op's output digest.
 *
 * The artifact cache directory is always DIR (exported as
 * NOL_CODEGEN_DIR), never the caller's ./.nol-codegen.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>

#include <unistd.h>

#include "bench.hpp"
#include "support/stats.hpp"

using namespace perfbench;

namespace {

/** A traced run times its passes for at most this long (half untraced,
 *  half traced) before its layer probes, so it ends well within a
 *  run's time limit however long --seconds is. */
constexpr double kTracedPassSeconds = 20;

struct Args {
    std::string mode = "measure";
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string codegenDir;
    std::string outDir = ".";
};

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "nol_perfbench: %s\nusage: nol_perfbench --codegen-dir DIR "
                 "[--mode measure|setup|fill-cache|artifact-load|describe|"
                 "digests] [--workload NAME] [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out-dir DIR]\n",
                 message);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string value = argv[++i];
        if (arg == "--mode")
            args.mode = value;
        else if (arg == "--workload")
            args.workload = value;
        else if (arg == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            args.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            args.trace = value == "1";
        else if (arg == "--codegen-dir")
            args.codegenDir = value;
        else if (arg == "--out-dir")
            args.outDir = value;
        else
            usage(("unknown option " + arg).c_str());
    }
    if (args.codegenDir.empty())
        usage("--codegen-dir is required");
    return args;
}

// ------------------------------------------------------------------ JSON

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + jsonString(items[i]);
    return out + "]";
}

std::string
jsonMetrics(const Metrics &metrics)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        out += (first ? "" : ",") + jsonString(name) + ":{\"value\":" +
               jsonNumber(metric.value) +
               ",\"unit\":" + jsonString(metric.unit) + "}";
        first = false;
    }
    return out + "}";
}

// ------------------------------------------------------------------ host

/** A fixed CPU-bound kernel; its time tracks the host's speed. */
double
spinMs()
{
    int64_t t0 = nowNs();
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (uint64_t i = 0; i < 20'000'000; ++i) {
        h ^= h >> 31;
        h *= 0xbf58476d1ce4e5b9ull;
        h += i;
    }
    volatile uint64_t sink = h;
    (void)sink;
    return static_cast<double>(nowNs() - t0) / 1e6;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::map<std::string, std::string>
hostFingerprint()
{
    return {{"cpu_model", cpuModel()},
            {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
            {"compiler", "g++ " __VERSION__},
            {"build_type", NOL_PERFBENCH_BUILD_TYPE}};
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0;
}

// ---------------------------------------------------------------- passes

struct PassStats {
    std::map<std::string, std::vector<double>> opMs; ///< by op kind
    std::vector<double> passMs;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Timed ops over timed seconds, whole passes only. */
    double opsPerSecond() const
    {
        double ms = 0;
        for (double pass_ms : passMs)
            ms += pass_ms;
        return static_cast<double>(attempted) / ms * 1e3;
    }

    /** Geomean over op kinds of each kind's median op time. */
    double geomeanMs() const
    {
        double log_sum = 0;
        for (const auto &[kind, samples] : opMs)
            log_sum += std::log(median(samples));
        return std::exp(log_sum / static_cast<double>(opMs.size()));
    }

    /** Every op time, ascending. */
    std::vector<double> allSamples() const
    {
        std::vector<double> out;
        for (const auto &[kind, samples] : opMs)
            out.insert(out.end(), samples.begin(), samples.end());
        std::sort(out.begin(), out.end());
        return out;
    }
};

/** Run one pass: every op once, in the seed's order for @p pass. */
void
runPass(Workload &w, uint64_t seed, uint64_t pass, Tracer &tracer,
        PassStats &stats)
{
    size_t n = w.ops.size();
    std::vector<bool> failed(n, false);
    double pass_ms = 0;
    Span pass_span(tracer, "pass");
    for (size_t i : passOrder(seed, pass, n)) {
        Op &op = w.ops[i];
        bool ok = true;
        int64_t t0 = nowNs();
        try {
            Span span(tracer, op.kind, "op");
            op.run();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "op %s threw: %s\n", op.kind.c_str(),
                         e.what());
            ok = false;
        }
        double ms = static_cast<double>(nowNs() - t0) / 1e6;
        if (ok) {
            try {
                ok = op.check();
            } catch (const std::exception &) {
                ok = false;
            }
        }
        if (!ok)
            failed[i] = true;
        stats.opMs[op.kind].push_back(ms);
        pass_ms += ms;
    }
    w.checkPass(failed);
    for (size_t i = 0; i < n; ++i) {
        if (failed[i])
            std::fprintf(stderr, "op %s failed its output check\n",
                         w.ops[i].kind.c_str());
    }
    stats.attempted += n;
    stats.failed += std::count(failed.begin(), failed.end(), true);
    stats.passMs.push_back(pass_ms);
}

/**
 * Whole passes until @p seconds have elapsed (at least one); @p halfway
 * runs once between the passes that straddle the half-way mark.
 */
void
runPasses(Workload &w, uint64_t seed, double seconds, Tracer &tracer,
          PassStats &stats, uint64_t &pass,
          const std::function<void()> &halfway = {})
{
    int64_t t0 = nowNs();
    bool halfway_done = !halfway;
    double elapsed = 0;
    do {
        runPass(w, seed, pass++, tracer, stats);
        elapsed = static_cast<double>(nowNs() - t0) / 1e9;
        if (!halfway_done && elapsed >= seconds / 2) {
            halfway();
            halfway_done = true;
        }
    } while (elapsed < seconds);
}

std::string
diagnosticsJson(const PassStats &stats, const std::vector<double> &spins)
{
    std::vector<double> all = stats.allSamples();
    std::string out = "{\"host\":{";
    bool first = true;
    for (const auto &[key, value] : hostFingerprint()) {
        out += (first ? "" : ",") + jsonString(key) + ":" + jsonString(value);
        first = false;
    }
    out += "},\"spin_ms\":[";
    for (size_t i = 0; i < spins.size(); ++i)
        out += (i ? "," : "") + jsonNumber(spins[i]);
    out += "],\"pass_ms\":[";
    for (size_t i = 0; i < stats.passMs.size(); ++i)
        out += (i ? "," : "") + jsonNumber(stats.passMs[i]);
    out += "]";
    out += ",\"op_ms.p50\":" +
           jsonNumber(nol::percentileNearestRank(all, 0.5));
    out += ",\"op_ms.p90\":" +
           jsonNumber(nol::percentileNearestRank(all, 0.9));
    out += ",\"op_ms.samples\":" + std::to_string(all.size()) + "}";
    return out;
}

int
measure(const Args &args, Workload &w, int64_t ready_ns)
{
    std::vector<double> spins = {spinMs()};
    Tracer tracer(false);
    PassStats untraced, traced;
    uint64_t pass = 0;
    if (!args.trace) {
        runPasses(w, args.seed, args.seconds, tracer, untraced, pass,
                  [&spins] { spins.push_back(spinMs()); });
    } else {
        double half = std::min(args.seconds, kTracedPassSeconds) / 2;
        runPasses(w, args.seed, half, tracer, untraced, pass);
        spins.push_back(spinMs());
        tracer.setEnabled(true);
        runPasses(w, args.seed, half, tracer, traced, pass);
    }

    std::vector<std::string> failures = w.setupFailures;
    Metrics metrics;
    if (!args.trace) {
        metrics["ops_per_s"] = {untraced.opsPerSecond(), "1/s"};
        metrics["op_ms.geomean"] = {untraced.geomeanMs(), "ms"};
    } else {
        auto append = [&failures](std::vector<std::string> more) {
            failures.insert(failures.end(), more.begin(), more.end());
        };
        append(probeCompileLayers(tracer, metrics));
        append(probePaperLayers(tracer, metrics));
        append(probeTrafficLayers(tracer, metrics, args.seed));
        double base = untraced.opsPerSecond();
        metrics["trace.overhead_pct"] = {
            (base - traced.opsPerSecond()) / base * 100, "%"};
        std::vector<double> all = untraced.allSamples();
        metrics["bench.op_ms.p50"] = {
            nol::percentileNearestRank(all, 0.5), "ms"};
        metrics["bench.op_ms.p90"] = {
            nol::percentileNearestRank(all, 0.9), "ms"};
        metrics["bench.op_ms.samples"] = {static_cast<double>(all.size()),
                                          "count"};
        for (const std::string &name : tracer.overfullSpans())
            failures.push_back("span children exceed span: " + name);
        std::map<std::string, std::string> meta = hostFingerprint();
        meta["workload"] = args.workload;
        meta["seed"] = std::to_string(args.seed);
        std::string path = args.outDir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
        std::ofstream(path) << tracer.toChromeJson(meta);
    }
    spins.push_back(spinMs());
    if (args.trace)
        metrics["host.spin_ms"] = {median(spins), "ms"};
    else
        metrics["peak_rss_mb"] = {peakRssMb(), "MiB"};

    for (const std::string &failure : failures)
        std::fprintf(stderr, "check failed: %s\n", failure.c_str());
    uint64_t attempted = untraced.attempted + traced.attempted;
    uint64_t failed = untraced.failed + traced.failed;
    bool correct = failed == 0 && failures.empty();
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"ready_ns\":%lld,\"metrics\":%s,\"diagnostics\":%s,"
                "\"failures\":%s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<long long>(ready_ns), jsonMetrics(metrics).c_str(),
                diagnosticsJson(untraced, spins).c_str(),
                jsonList(failures).c_str());
    return 0;
}

int
describe(const Args &args, const Workload &w)
{
    std::vector<std::string> kinds, order;
    for (const Op &op : w.ops)
        kinds.push_back(op.kind);
    for (size_t i : passOrder(args.seed, 0, w.ops.size()))
        order.push_back(w.ops[i].kind);
    std::vector<std::string> contents = w.contents;
    std::sort(kinds.begin(), kinds.end());
    std::sort(contents.begin(), contents.end());
    std::printf("{\"ops\":%s,\"order\":%s,\"contents\":%s,"
                "\"sequence\":%s}\n",
                jsonList(kinds).c_str(), jsonList(order).c_str(),
                jsonList(contents).c_str(), jsonList(w.contents).c_str());
    return 0;
}

int
digests(const Args &args, Workload &w)
{
    Tracer tracer(false);
    PassStats stats;
    runPass(w, args.seed, 0, tracer, stats);
    std::string out = "{";
    for (size_t i = 0; i < w.ops.size(); ++i) {
        out += (i ? "," : "") + jsonString(w.ops[i].kind) + ":" +
               jsonString(w.ops[i].digest());
    }
    std::printf("{\"failed\":%llu,\"digests\":%s}}\n",
                static_cast<unsigned long long>(stats.failed), out.c_str());
    return 0;
}

int
run(const Args &args)
{
    if (args.mode == "fill-cache") {
        std::printf("{\"prepared\":%zu}\n", fillArtifactCache());
        return 0;
    }
    if (args.mode == "artifact-load") {
        std::printf("{\"ms\":%s}\n", jsonNumber(timeArtifactLoads()).c_str());
        return 0;
    }
    std::unique_ptr<Workload> w = makeWorkload(args.workload, args.seed);
    if (w == nullptr)
        usage(("unknown workload " + args.workload).c_str());
    int64_t ready_ns = nowNs();
    if (args.mode == "setup") {
        std::printf("{\"ready_ns\":%lld}\n", static_cast<long long>(ready_ns));
        return 0;
    }
    if (args.mode == "measure")
        return measure(args, *w, ready_ns);
    if (args.mode == "describe")
        return describe(args, *w);
    if (args.mode == "digests")
        return digests(args, *w);
    usage(("unknown mode " + args.mode).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (setenv("NOL_CODEGEN_DIR", args.codegenDir.c_str(), 1) != 0) {
        std::perror("setenv");
        return 1;
    }
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nol_perfbench: %s\n", e.what());
        return 1;
    }
}
