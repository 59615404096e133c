#include "obs/metrics.h"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace oceanstore {

namespace {

/** Shortest round-trippable rendering, deterministic across runs. */
std::string
jsonDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

} // namespace

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry instance;
    return instance;
}

MetricsRegistry::Registration
MetricsRegistry::registerMetricLocked(const std::string &name,
                                      Kind kind)
{
    auto it = names_.find(name);
    if (it != names_.end()) {
        if (it->second.first != kind)
            return {0, Registration::Fault::KindClash, false};
        return {it->second.second, Registration::Fault::None, false};
    }
    std::size_t *count = nullptr;
    std::size_t cap = 0;
    std::vector<const std::string *> *names = nullptr;
    switch (kind) {
    case Kind::Counter:
        count = &counterCount_;
        cap = kMaxCounters;
        names = &counterNames_;
        break;
    case Kind::Gauge:
        count = &gaugeCount_;
        cap = kMaxGauges;
        names = &gaugeNames_;
        break;
    case Kind::Histogram:
        count = &histogramCount_;
        cap = kMaxHistograms;
        names = &histogramNames_;
        break;
    }
    if (*count >= cap)
        return {0, Registration::Fault::Full, false};
    Id id = static_cast<Id>((*count)++);
    auto ins = names_.emplace(name, std::make_pair(kind, id));
    names->push_back(&ins.first->first);
    return {id, Registration::Fault::None, true};
}

MetricsRegistry::Id
MetricsRegistry::checked(const Registration &r, const std::string &name)
{
    // Runs after mu_ is released: a failed check's hook (a flight
    // dump) snapshots this registry, which takes mu_ again.
    OS_CHECK(r.fault != Registration::Fault::KindClash, "metric '", name,
             "' re-registered as a different kind");
    OS_CHECK(r.fault != Registration::Fault::Full,
             "metrics: capacity exhausted registering '", name, "'");
    return r.id;
}

MetricsRegistry::Id
MetricsRegistry::counter(const std::string &name)
{
    Registration r;
    {
        MutexLock lock(mu_);
        r = registerMetricLocked(name, Kind::Counter);
    }
    return checked(r, name);
}

MetricsRegistry::Id
MetricsRegistry::gauge(const std::string &name)
{
    Registration r;
    {
        MutexLock lock(mu_);
        r = registerMetricLocked(name, Kind::Gauge);
    }
    return checked(r, name);
}

MetricsRegistry::Id
MetricsRegistry::histogram(const std::string &name, double lo, double hi,
                           std::size_t bins)
{
    OS_CHECK(hi > lo && bins > 0, "histogram '", name,
             "': bad bucket range");
    Registration r;
    {
        MutexLock lock(mu_);
        r = registerMetricLocked(name, Kind::Histogram);
        if (r.fresh) {
            HistogramData &h = histograms_[r.id];
            h.lo = lo;
            h.hi = hi;
            h.binWidth = (hi - lo) / static_cast<double>(bins);
            h.binCount = bins + 2; // [underflow, buckets..., overflow]
            h.bins = std::make_unique<std::atomic<std::uint64_t>[]>(
                h.binCount);
        }
    }
    return checked(r, name);
}

void
MetricsRegistry::observe(Id id, double value)
{
    // Lock-free: the histogram's shape (lo/hi/binWidth/bins) is
    // immutable once its registration returned the id to the caller.
    HistogramData &h = histograms_[id];
    std::size_t bin;
    if (value < h.lo) {
        bin = 0;
    } else if (value >= h.hi) {
        bin = h.binCount - 1;
    } else {
        bin = 1 + static_cast<std::size_t>((value - h.lo) / h.binWidth);
        if (bin > h.binCount - 2)
            bin = h.binCount - 2;
    }
    h.bins[bin].fetch_add(1, std::memory_order_relaxed);
    h.total.fetch_add(1, std::memory_order_relaxed);
    h.sum.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    MutexLock lock(mu_);
    auto it = names_.find(name);
    if (it == names_.end() || it->second.first != Kind::Counter)
        return 0;
    return counters_[it->second.second].load(
        std::memory_order_relaxed);
}

double
MetricsRegistry::gaugeValue(const std::string &name) const
{
    MutexLock lock(mu_);
    auto it = names_.find(name);
    if (it == names_.end() || it->second.first != Kind::Gauge)
        return 0.0;
    return gauges_[it->second.second].load(std::memory_order_relaxed);
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < counterCount_; i++)
        snap.counters[*counterNames_[i]] =
            counters_[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < gaugeCount_; i++)
        snap.gauges[*gaugeNames_[i]] =
            gauges_[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < histogramCount_; i++) {
        const HistogramData &h = histograms_[i];
        MetricsSnapshot::Hist out;
        out.lo = h.lo;
        out.hi = h.hi;
        out.bins.resize(h.binCount);
        for (std::size_t b = 0; b < h.binCount; b++)
            out.bins[b] = h.bins[b].load(std::memory_order_relaxed);
        out.total = h.total.load(std::memory_order_relaxed);
        out.sum = h.sum.load(std::memory_order_relaxed);
        snap.histograms[*histogramNames_[i]] = std::move(out);
    }
    return snap;
}

void
MetricsRegistry::resetValues()
{
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < counterCount_; i++)
        counters_[i].store(0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < gaugeCount_; i++)
        gauges_[i].store(0.0, std::memory_order_relaxed);
    for (std::size_t i = 0; i < histogramCount_; i++) {
        HistogramData &h = histograms_[i];
        for (std::size_t b = 0; b < h.binCount; b++)
            h.bins[b].store(0, std::memory_order_relaxed);
        h.total.store(0, std::memory_order_relaxed);
        h.sum.store(0.0, std::memory_order_relaxed);
    }
}

MetricsSnapshot
MetricsSnapshot::deltaFrom(const MetricsSnapshot &before) const
{
    MetricsSnapshot delta;
    for (const auto &[name, value] : counters) {
        auto it = before.counters.find(name);
        std::uint64_t base = it == before.counters.end() ? 0 : it->second;
        if (value != base)
            delta.counters[name] = value - base;
    }
    delta.gauges = gauges; // levels, not totals
    for (const auto &[name, h] : histograms) {
        auto it = before.histograms.find(name);
        Hist d = h;
        if (it != before.histograms.end()) {
            const Hist &b = it->second;
            if (b.bins.size() == d.bins.size()) {
                for (std::size_t i = 0; i < d.bins.size(); i++)
                    d.bins[i] -= b.bins[i];
                d.total -= b.total;
                d.sum -= b.sum;
            }
        }
        if (d.total != 0)
            delta.histograms[name] = std::move(d);
    }
    return delta;
}

void
MetricsSnapshot::writeJson(std::ostream &out) const
{
    out << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, value] : counters) {
        out << (first ? "\n" : ",\n") << "    \"" << name
            << "\": " << value;
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &[name, value] : gauges) {
        out << (first ? "\n" : ",\n") << "    \"" << name
            << "\": " << jsonDouble(value);
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        out << (first ? "\n" : ",\n") << "    \"" << name
            << "\": {\"lo\": " << jsonDouble(h.lo)
            << ", \"hi\": " << jsonDouble(h.hi)
            << ", \"total\": " << h.total
            << ", \"sum\": " << jsonDouble(h.sum) << ", \"bins\": [";
        for (std::size_t i = 0; i < h.bins.size(); i++)
            out << (i ? ", " : "") << h.bins[i];
        out << "]}";
        first = false;
    }
    out << (first ? "" : "\n  ") << "}\n}\n";
}

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

} // namespace oceanstore
