#include "runner.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "obs/metrics.h"
#include "util/stats.h"

namespace oceanstore {
namespace bench {

void
BenchContext::metric(const std::string &name, const std::string &unit,
                     double value)
{
    metrics_.emplace_back(name, std::make_pair(unit, value));
}

void
BenchContext::beginMeasured()
{
    if (inRegion_)
        return;
    inRegion_ = true;
    regionStart_ = std::chrono::steady_clock::now();
}

void
BenchContext::endMeasured()
{
    if (!inRegion_)
        return;
    inRegion_ = false;
    measured_ += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - regionStart_)
                     .count();
}

namespace {

/** Parse all of @p s as an unsigned integer (0x prefix allowed). */
bool
parseCount(const std::string &s, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s.c_str(), &end, 0);
    return !s.empty() && s[0] != '-' && errno == 0 && *end == '\0';
}

} // namespace

RunnerOptions
parseRunnerArgs(int argc, char **argv, std::string *error_out)
{
    RunnerOptions opt;
    std::string error;
    for (int i = 1; i < argc && error.empty(); i++) {
        std::string a = argv[i];
        std::string v;
        std::uint64_t n = 0;
        if (a == "--bench") {
            continue;
        } else if (a == "--smoke") {
            opt.smoke = true;
            opt.repeats = 1;
            opt.warmup = 0;
            continue;
        } else if (a == "--list") {
            opt.list = true;
            continue;
        } else if (a.rfind("--seed=", 0) == 0) {
            v = a.substr(7);
            a = "--seed";
        } else if (a != "--json" && a != "--filter" && a != "--repeats" &&
                   a != "--warmup" && a != "--seed") {
            error = "unknown argument '" + a + "'";
            break;
        } else if (i + 1 >= argc) {
            error = a + " requires an argument";
            break;
        } else {
            v = argv[++i];
        }
        if (a == "--json")
            opt.jsonPath = v;
        else if (a == "--filter")
            opt.filter = v;
        else if (!parseCount(v, n))
            error = a + " needs a number, got '" + v + "'";
        else if (a == "--repeats")
            opt.repeats = static_cast<int>(std::clamp<std::uint64_t>(
                n, 1, std::numeric_limits<int>::max()));
        else if (a == "--warmup")
            opt.warmup = static_cast<int>(std::min<std::uint64_t>(
                n, std::numeric_limits<int>::max()));
        else
            opt.seed = n;
    }
    if (error_out)
        *error_out = error;
    return opt;
}

namespace {

/** Escape a string for inclusion in a JSON document. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

MetricStats
aggregate(const std::string &unit, std::vector<double> samples)
{
    MetricStats st;
    st.unit = unit;
    st.repeats = samples.size();
    if (samples.empty())
        return st;
    Accumulator acc;
    for (double s : samples)
        acc.add(s);
    st.mean = acc.mean();
    st.min = acc.min();
    st.max = acc.max();
    st.p50 = acc.percentile(50);
    st.p95 = acc.percentile(95);
    return st;
}

} // namespace

class Runner
{
  public:
    Runner(std::string suite, RunnerOptions opt)
        : suite_(std::move(suite)), opt_(std::move(opt))
    {
    }

    int
    run(const std::vector<BenchCase> &cases)
    {
        for (const BenchCase &c : cases) {
            if (!opt_.filter.empty() &&
                c.name.find(opt_.filter) == std::string::npos)
                continue;
            if (opt_.list) {
                std::printf("%s\n", c.name.c_str());
                continue;
            }
            runCase(c);
        }
        if (opt_.list)
            return 0;
        if (!opt_.jsonPath.empty() && !writeJson())
            return 1;
        return 0;
    }

  private:
    /** metric name -> (unit, per-repeat samples). */
    using CaseSamples =
        std::map<std::string, std::pair<std::string, std::vector<double>>>;

    void
    runCase(const BenchCase &c)
    {
        for (int w = 0; w < opt_.warmup; w++) {
            BenchContext ctx;
            ctx.smoke_ = opt_.smoke;
            ctx.seed_ = opt_.seed;
            c.fn(ctx);
        }
        CaseSamples samples;
        MetricsSnapshot before = MetricsRegistry::global().snapshot();
        for (int r = 0; r < opt_.repeats; r++) {
            BenchContext ctx;
            ctx.smoke_ = opt_.smoke;
            ctx.seed_ = opt_.seed;
            auto t0 = std::chrono::steady_clock::now();
            c.fn(ctx);
            auto t1 = std::chrono::steady_clock::now();
            double wall =
                std::chrono::duration<double>(t1 - t0).count();
            record(samples, "wall_ms", "ms", wall * 1e3);
            double denom = ctx.measured_ > 0 ? ctx.measured_ : wall;
            if (ctx.events_ > 0 && denom > 0) {
                record(samples, "events_per_sec", "1/s",
                       static_cast<double>(ctx.events_) / denom);
            }
            if (ctx.bytes_ > 0 && denom > 0) {
                record(samples, "mb_s", "MB/s",
                       static_cast<double>(ctx.bytes_) / denom / 1e6);
            }
            for (const auto &[name, us] : ctx.metrics_)
                record(samples, name, us.first, us.second);
        }
        auto &stats = results_[c.name];
        for (auto &[name, us] : samples)
            stats[name] = aggregate(us.first, std::move(us.second));
        // Registry counter deltas over the measured repeats (warmup
        // excluded): what the system *did*, next to how fast it did it.
        counters_[c.name] =
            MetricsRegistry::global().snapshot().deltaFrom(before)
                .counters;
        printCase(c.name, stats, counters_[c.name]);
    }

    static void
    record(CaseSamples &samples, const std::string &name,
           const std::string &unit, double value)
    {
        auto &entry = samples[name];
        entry.first = unit;
        entry.second.push_back(value);
    }

    void
    printCase(const std::string &name,
              const std::map<std::string, MetricStats> &stats,
              const std::map<std::string, std::uint64_t> &counters) const
    {
        std::printf("%s/%s:\n", suite_.c_str(), name.c_str());
        for (const auto &[metric, st] : stats) {
            std::printf("  %-24s p50 %12.7g   p95 %12.7g   "
                        "mean %12.7g %s  (%zu repeats)\n",
                        metric.c_str(), st.p50, st.p95, st.mean,
                        st.unit.c_str(), st.repeats);
        }
        for (const auto &[counter, delta] : counters) {
            std::printf("  %-24s %llu (counter, all repeats)\n",
                        counter.c_str(),
                        static_cast<unsigned long long>(delta));
        }
    }

    bool
    writeJson() const
    {
        std::ofstream out(opt_.jsonPath);
        if (!out) {
            std::fprintf(stderr, "runner: cannot write %s\n",
                         opt_.jsonPath.c_str());
            return false;
        }
        out << "{\n";
        out << "  \"schema\": \"oceanstore-bench-v1\",\n";
        out << "  \"bench\": \"" << jsonEscape(suite_) << "\",\n";
        out << "  \"smoke\": " << (opt_.smoke ? "true" : "false")
            << ",\n";
        out << "  \"repeats\": " << opt_.repeats << ",\n";
        out << "  \"warmup\": " << opt_.warmup << ",\n";
        out << "  \"seed\": " << opt_.seed << ",\n";
        out << "  \"cases\": {\n";
        bool first_case = true;
        for (const auto &[name, stats] : results_) {
            if (!first_case)
                out << ",\n";
            first_case = false;
            out << "    \"" << jsonEscape(name)
                << "\": {\"metrics\": {\n";
            bool first_metric = true;
            for (const auto &[metric, st] : stats) {
                if (!first_metric)
                    out << ",\n";
                first_metric = false;
                out << "      \"" << jsonEscape(metric) << "\": {"
                    << "\"unit\": \"" << jsonEscape(st.unit) << "\", "
                    << "\"repeats\": " << st.repeats << ", "
                    << "\"mean\": " << jsonNumber(st.mean) << ", "
                    << "\"min\": " << jsonNumber(st.min) << ", "
                    << "\"max\": " << jsonNumber(st.max) << ", "
                    << "\"p50\": " << jsonNumber(st.p50) << ", "
                    << "\"p95\": " << jsonNumber(st.p95) << "}";
            }
            out << "\n    }";
            auto cit = counters_.find(name);
            if (cit != counters_.end() && !cit->second.empty()) {
                out << ", \"" << countersKey(cit->second) << "\": {";
                bool first_counter = true;
                for (const auto &[counter, delta] : cit->second) {
                    if (!first_counter)
                        out << ", ";
                    first_counter = false;
                    out << "\"" << jsonEscape(counter)
                        << "\": " << delta;
                }
                out << "}";
            }
            out << "}";
        }
        out << "\n  }\n}\n";
        return out.good();
    }

    /**
     * JSON key for a case's counter deltas: "wall_counters" when its
     * repeats fired paced events (only the threaded runtime's pacer
     * bumps runtime.tasks), whose counts move between runs of one
     * commit; "counters", exact and diffable, otherwise.
     */
    static const char *
    countersKey(const std::map<std::string, std::uint64_t> &counters)
    {
        auto it = counters.find("runtime.tasks");
        return it != counters.end() && it->second > 0 ? "wall_counters"
                                                       : "counters";
    }

    std::string suite_;
    RunnerOptions opt_;
    /** case -> metric -> stats, in registration-independent order. */
    std::map<std::string, std::map<std::string, MetricStats>> results_;
    /** case -> registry counter deltas summed over measured repeats. */
    std::map<std::string, std::map<std::string, std::uint64_t>> counters_;
};

int
runBenchMain(int argc, char **argv, const std::string &suite,
             const std::vector<BenchCase> &cases)
{
    std::string error;
    RunnerOptions opt = parseRunnerArgs(argc, argv, &error);
    if (!error.empty()) {
        std::fprintf(stderr, "%s: %s\n", suite.c_str(), error.c_str());
        return 2;
    }
    return Runner(suite, opt).run(cases);
}

} // namespace bench
} // namespace oceanstore
