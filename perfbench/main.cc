/**
 * @file
 * osbench: the OceanStore end-to-end benchmark.
 *
 *   osbench --workload serve_small|archive_large|geo_sim --seed N
 *           --seconds S --trace 0|1 [--corrupt-expected]
 *
 * Prints one "metric <name> <value> <unit>" line per metric, then, as
 * the last line of standard output, one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * With --trace 0 the metrics are the end-to-end ones (untraced); with
 * --trace 1 they are the per-layer ones from a traced run.  Exits 1
 * when any byte read back differs from what was written.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "util/logging.h"

using namespace osbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: osbench --workload serve_small|archive_large|"
                 "geo_sim --seed N --seconds S --trace 0|1 "
                 "[--corrupt-expected]\n");
    return 2;
}

/** JSON-safe number: every digit a double carries. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::stoull(value());
        else if (a == "--seconds")
            opt.seconds = std::stod(value());
        else if (a == "--trace")
            opt.trace = value() != "0";
        else if (a == "--corrupt-expected")
            opt.corruptExpected = true;
        else
            return usage();
    }
    if (opt.seconds <= 0.0)
        return usage();

    // The system logs every server restart at info level; keep the
    // benchmark's standard output to metrics.
    oceanstore::Log::setLevel(oceanstore::LogLevel::Warn);

    RunResult res;
    if (opt.workload == "serve_small")
        res = runServeSmall(opt);
    else if (opt.workload == "archive_large")
        res = runArchiveLarge(opt);
    else if (opt.workload == "geo_sim")
        res = runGeoSim(opt);
    else
        return usage();

    const char *sha = std::getenv("OSBENCH_GIT_SHA");
    std::printf("info workload=%s seed=%llu seconds=%g trace=%d "
                "build=%s nproc=%u git=%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, OSBENCH_BUILD_TYPE,
                std::thread::hardware_concurrency(),
                sha && *sha ? sha : "unknown");
    std::printf("info attempted=%llu failed=%llu error_frac=%.6g "
                "correct=%s\n",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed),
                res.attempted ? static_cast<double>(res.failed) /
                                    static_cast<double>(res.attempted)
                              : 0.0,
                res.correct ? "true" : "false");
    for (const Metric &m : res.extra)
        std::printf("extra %s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                    m.unit.c_str());
    for (const Metric &m : res.metrics)
        std::printf("metric %s %s %s\n", m.name.c_str(),
                    num(m.value).c_str(), m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += res.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < res.metrics.size(); i++) {
        const Metric &m = res.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    if (!res.correct) {
        std::fprintf(stderr, "osbench: output check FAILED: a read or "
                             "restore returned bytes that differ from "
                             "what was written\n");
        return 1;
    }
    return res.attempted > 0 ? 0 : 1;
}
