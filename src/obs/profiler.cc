#include "obs/profiler.h"

#include <algorithm>

#include "util/check.h"

namespace oceanstore {

std::atomic<PhaseProfiler *> PhaseProfiler::active_{nullptr};

namespace {

/** Each thread's ambient phase label (shared across profiler
 *  instances; exactly one is active at a time). */
thread_local PhaseProfiler::Label tlCurrentLabel = 0;

} // namespace

PhaseProfiler::PhaseProfiler()
{
    // Label 0: events scheduled with no ambient attribution.
    MutexLock lock(mu_);
    labelNames_.push_back("(unlabeled)");
    labelTable_.emplace(labelNames_.back(), 0);
}

PhaseProfiler::Label
PhaseProfiler::currentLabel() const
{
    return tlCurrentLabel;
}

void
PhaseProfiler::setCurrent(Label label)
{
    tlCurrentLabel = label;
}

PhaseProfiler::Label
PhaseProfiler::intern(std::string_view name)
{
    MutexLock lock(mu_);
    auto it = labelTable_.find(name);
    if (it != labelTable_.end())
        return it->second;
    OS_CHECK(labelNames_.size() < kMaxLabels,
             "profiler: label capacity exhausted interning '", name,
             "'");
    Label label = static_cast<Label>(labelNames_.size());
    labelNames_.emplace_back(name);
    labelTable_.emplace(name, label);
    return label;
}

PhaseProfiler::Label
PhaseProfiler::labelForMessageType(std::string_view type)
{
    return intern(type.substr(0, type.find('.')));
}

std::vector<PhaseProfiler::PhaseStats>
PhaseProfiler::stats() const
{
    std::vector<PhaseStats> out;
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < labelNames_.size(); i++) {
        std::uint64_t events =
            buckets_[i].events.load(std::memory_order_relaxed);
        if (events == 0)
            continue;
        PhaseStats row;
        row.name = labelNames_[i];
        row.events = events;
        row.delay = buckets_[i].delay.load(std::memory_order_relaxed);
        out.push_back(std::move(row));
    }
    std::sort(out.begin(), out.end(),
              [](const PhaseStats &a, const PhaseStats &b) {
                  return a.name < b.name;
              });
    return out;
}

std::uint64_t
PhaseProfiler::totalEvents() const
{
    std::uint64_t total = 0;
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < labelNames_.size(); i++)
        total += buckets_[i].events.load(std::memory_order_relaxed);
    return total;
}

void
PhaseProfiler::clear()
{
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < labelNames_.size(); i++) {
        buckets_[i].events.store(0, std::memory_order_relaxed);
        buckets_[i].delay.store(0.0, std::memory_order_relaxed);
    }
    tlCurrentLabel = 0;
}

} // namespace oceanstore
