#include "introspect/prefetch.h"

#include <algorithm>

namespace oceanstore {

Prefetcher::Prefetcher(unsigned order, unsigned breadth)
    : order_(order == 0 ? 1 : order), breadth_(breadth)
{
    tables_.resize(order_);
}

void
Prefetcher::onAccess(const Guid &obj)
{
    // Update transition counts for every context length ending just
    // before this access.
    for (unsigned k = 1; k <= order_ && k <= history_.size(); k++) {
        ContextKey key;
        key.reserve(k);
        for (std::size_t i = history_.size() - k; i < history_.size();
             i++) {
            key.push_back(history_[i].hash64());
        }
        tables_[k - 1][key][obj]++;
    }
    history_.push_back(obj);
    if (history_.size() > order_)
        history_.pop_front();
}

std::vector<Guid>
Prefetcher::predict() const
{
    // Longest-context-first with fallback.
    for (unsigned k = std::min<std::size_t>(order_, history_.size());
         k >= 1; k--) {
        ContextKey key;
        key.reserve(k);
        for (std::size_t i = history_.size() - k; i < history_.size();
             i++) {
            key.push_back(history_[i].hash64());
        }
        auto it = tables_[k - 1].find(key);
        if (it == tables_[k - 1].end())
            continue;

        std::vector<std::pair<Guid, std::uint64_t>> ranked(
            it->second.begin(), it->second.end());
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second != b.second)
                          return a.second > b.second;
                      return a.first < b.first;
                  });
        std::vector<Guid> out;
        for (std::size_t i = 0; i < ranked.size() && i < breadth_; i++)
            out.push_back(ranked[i].first);
        if (!out.empty())
            return out;
    }
    return {};
}

bool
Prefetcher::wouldHaveHit(const Guid &obj) const
{
    auto preds = predict();
    return std::find(preds.begin(), preds.end(), obj) != preds.end();
}

} // namespace oceanstore
