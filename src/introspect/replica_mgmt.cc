#include "introspect/replica_mgmt.h"

#include <algorithm>

#include "util/check.h"

namespace oceanstore {

ReplicaManager::ReplicaManager(ReplicaPolicyConfig cfg)
    : cfg_(cfg)
{
    OS_CHECK(cfg.minReplicas >= 1 &&
                 cfg.maxReplicas >= cfg.minReplicas,
             "ReplicaPolicyConfig: min=", cfg.minReplicas,
             " max=", cfg.maxReplicas);
    // A zero overload threshold would flag every idle replica as
    // overloaded.  (disuse >= overload is deliberately allowed: tests
    // use hair-trigger overload thresholds, and decide() resolves the
    // overlap by checking overload first.)
    OS_CHECK(cfg.overloadThreshold > 0,
             "ReplicaPolicyConfig: zero overload threshold");
}

std::vector<ReplicaAction>
ReplicaManager::decide(
    const std::vector<ReplicaLoad> &loads,
    const ReplicaCandidates &candidates) const
{
    std::vector<ReplicaAction> actions;

    // Current replica count and hosts per object.
    std::map<Guid, std::vector<const ReplicaLoad *>> by_object;
    for (const auto &l : loads)
        by_object[l.object].push_back(&l);

    // Hosts that will be occupied after creations, to avoid doubling
    // up on one node within an epoch.
    std::map<Guid, std::vector<NodeId>> occupied;
    for (const auto &[obj, reps] : by_object) {
        for (const auto *r : reps)
            occupied[obj].push_back(r->host);
    }

    for (const auto &[obj, reps] : by_object) {
        unsigned count = static_cast<unsigned>(reps.size());

        // Overload: create near the hottest replicas first.
        std::vector<const ReplicaLoad *> hot;
        for (const auto *r : reps) {
            if (r->requests >= cfg_.overloadThreshold)
                hot.push_back(r);
        }
        std::sort(hot.begin(), hot.end(),
                  [](const ReplicaLoad *a, const ReplicaLoad *b) {
                      return a->requests > b->requests;
                  });
        for (const auto *r : hot) {
            if (count >= cfg_.maxReplicas)
                break;
            auto cit = candidates.find({obj, r->host});
            if (cit == candidates.end())
                continue;
            for (NodeId cand : cit->second) {
                auto &occ = occupied[obj];
                if (std::find(occ.begin(), occ.end(), cand) !=
                    occ.end()) {
                    continue;
                }
                actions.push_back(
                    {ReplicaAction::Kind::Create, obj, cand});
                occ.push_back(cand);
                count++;
                break;
            }
        }

        // Disuse: retire the coldest replicas, never dropping below
        // the floor (and never a replica we just created).
        std::vector<const ReplicaLoad *> cold;
        for (const auto *r : reps) {
            if (r->requests <= cfg_.disuseThreshold)
                cold.push_back(r);
        }
        std::sort(cold.begin(), cold.end(),
                  [](const ReplicaLoad *a, const ReplicaLoad *b) {
                      return a->requests < b->requests;
                  });
        for (const auto *r : cold) {
            if (count <= cfg_.minReplicas)
                break;
            actions.push_back(
                {ReplicaAction::Kind::Retire, obj, r->host});
            count--;
        }
    }
    return actions;
}

} // namespace oceanstore
