/**
 * @file
 * The secondary tier of floating replicas (Section 4.4.3, Figure 5).
 *
 * Secondary replicas do not participate in serialization.  They hold
 * both tentative and committed data: tentative updates spread among
 * them with an epidemic (rumor + anti-entropy) protocol and are
 * ordered optimistically by client timestamp; committed updates
 * arrive from the primary tier down the dissemination tree (or, in
 * the epidemic-only ablation, via anti-entropy alone).  Parents can
 * transform updates into *invalidations* for bandwidth-limited
 * leaves, which then pull data on demand.
 */

#ifndef OCEANSTORE_CONSISTENCY_SECONDARY_H
#define OCEANSTORE_CONSISTENCY_SECONDARY_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "consistency/data_object.h"
#include "consistency/dissemination.h"
#include "runtime/rpc.h"
#include "runtime/runtime.h"
#include "util/check.h"
#include "util/random.h"
#include "util/retry.h"

namespace oceanstore {

/** Tunables for the secondary tier. */
struct SecondaryConfig
{
    /** Seconds between anti-entropy exchanges per replica. */
    double antiEntropyPeriod = 0.5;
    /** Dissemination-tree fanout. */
    unsigned treeFanout = 4;
    /** Push committed updates down the tree (ablation: false). */
    bool treePush = true;
    /** Send invalidations (not bodies) to tree leaves. */
    bool invalidateAtLeaves = false;
    /** Retransmit schedule for unacked tree pushes. */
    RetryPolicy pushRetry{0.6, 2.0, 5.0, 4, 0.1};
    /** Randomness seed. */
    std::uint64_t seed = 0x5ec0d417u;
};

class SecondaryTier;

/** One secondary floating replica. */
class SecondaryReplica : public SimNode
{
  public:
    SecondaryReplica(SecondaryTier &tier, std::size_t index);

    void handleMessage(const Message &msg) override;

    /** Network id. */
    NodeId nodeId() const { return nodeId_; }

    /** Committed version of @p obj held here (0 if unknown). */
    VersionNum committedVersion(const Guid &obj) const;

    /**
     * Committed object state; an unknown object becomes known here at
     * version 0, sharing the tier's empty state for it.  The reference
     * is valid until this replica next applies an update to @p obj.
     */
    const DataObject &committedObject(const Guid &obj);

    /** The shared committed state of @p obj, or null if unknown. */
    SharedState committedState(const Guid &obj) const;

    /**
     * Tentative view: committed state with locally known tentative
     * updates applied in optimistic timestamp order (Section 4.4.3).
     */
    DataObject tentativeObject(const Guid &obj);

    /** Tentative updates currently held (unordered). */
    std::size_t tentativeCount() const { return tentative_.size(); }

    /** True when an invalidation marked @p obj stale here. */
    bool isStale(const Guid &obj) const { return stale_.count(obj) > 0; }

    /** Pull missing committed updates for @p obj from the parent. */
    void fetchFromParent(const Guid &obj);

  private:
    friend class SecondaryTier;

    void onTentative(const Message &msg);
    void onDigest(const Message &msg);
    void onPull(const Message &msg);
    void onUpdates(const Message &msg);
    void onPush(const Message &msg);
    void onAck(const Message &msg);
    void onInvalidate(const Message &msg);
    void onFetch(const Message &msg);

    /**
     * What this replica holds of one object, at the object's tier
     * slot (DESIGN.md section 20).
     */
    struct Held
    {
        /** The committed version it commits to; null when the object
         *  is unknown here. */
        SharedState state;
        /** Versions already forwarded down the tree: every version up
         *  to forwardedThrough, plus forwardedAbove (sorted, each
         *  above forwardedThrough + 1).  The (object, version) of a
         *  push names one committed update, so this is the set of
         *  update ids forwarded for this object. */
        VersionNum forwardedThrough = 0;
        std::vector<VersionNum> forwardedAbove;
    };

    /** The held entry of @p obj, or null when it is unknown here. */
    const Held *find(const Guid &obj) const;
    /** The held entry at @p slot, made known at version 0 if new. */
    Held &hold(std::uint32_t slot);
    /** Call @p visit on every object held here, in GUID order (the
     *  order digests and repair records are built in). */
    template <typename F> void forEachHeld(F &&visit) const;
    /** Record @p version as forwarded; false if it already was. */
    static bool markForwarded(Held &h, VersionNum version);

    void storeTentative(SharedUpdate u, bool gossip);
    void applyCommitted(std::uint32_t slot, SharedUpdate u,
                        VersionNum version);
    void drainBuffered(std::uint32_t slot, const Guid &obj);
    void scheduleAntiEntropy();
    void runAntiEntropy();

    SecondaryTier &tier_;
    std::size_t index_;
    NodeId nodeId_ = invalidNode;
    Rng rng_;

    /** Committed state and forwarded mark, indexed by tier slot. */
    std::vector<Held> held_;
    /** Tentative updates by update id.  Ordered: anti-entropy digests
     *  and pushes are built by iterating this map, so its order feeds
     *  message emission and must be deterministic. */
    std::map<Guid, SharedUpdate> tentative_;
    /** Committed updates that arrived out of order. */
    std::map<Guid, std::map<VersionNum, SharedUpdate>> buffered_;
    /** Objects invalidated but not yet re-fetched: obj -> needed version. */
    std::unordered_map<Guid, VersionNum> stale_;
    /** (child, update id) -> retransmit driver for an unacked push. */
    std::map<std::pair<NodeId, Guid>, std::unique_ptr<RpcCall>>
        pushPending_;
    std::uint64_t pushRetransmits_ = 0;
    /** Armed anti-entropy timer: the cancellation handle for the
     *  self-rescheduling closure (which captures `this`). */
    EventId antiEntropyTimer_ = invalidEventId;
};

/**
 * Manager of a flock of secondary replicas for one object community:
 * creates them, wires the epidemic process, and (optionally) builds
 * the dissemination tree rooted at a primary-tier contact.
 */
class SecondaryTier
{
  public:
    /**
     * @param rt        runtime to register replicas on
     * @param positions one (x, y) per replica; replica 0 is the tree
     *                  root (the primary tier's contact point)
     */
    SecondaryTier(Runtime &rt,
                  const std::vector<std::pair<double, double>> &positions,
                  SecondaryConfig cfg = {});

    /** Number of replicas. */
    std::size_t size() const { return replicas_.size(); }

    /** Replica accessor. */
    SecondaryReplica &
    replica(std::size_t i)
    {
        OS_CHECK(i < replicas_.size(), "SecondaryTier::replica(", i,
                 ") of ", replicas_.size());
        return *replicas_[i];
    }

    /** Begin the periodic anti-entropy process on every replica. */
    void startAntiEntropy();

    /** Stop scheduling further anti-entropy rounds. */
    void stopAntiEntropy() { antiEntropyOn_ = false; }

    /**
     * Submit a tentative update at replica @p i; it spreads
     * epidemically and is ordered optimistically by timestamp.
     */
    void submitTentative(std::size_t i, const Update &u);

    /**
     * Inject a committed update (serialized by the primary tier) at
     * the tree root; it multicasts down the dissemination tree, or —
     * with treePush disabled — waits for anti-entropy to carry it.
     * Every replica, message body and retransmit driver shares @p u,
     * which must come from shareUpdate().
     */
    void injectCommitted(SharedUpdate u, VersionNum version);

    /** Adapter for tests and benchmarks: shares a copy of @p u. */
    void
    injectCommitted(const Update &u, VersionNum version)
    {
        injectCommitted(shareUpdate(u), version);
    }

    /** True when every replica has committed @p obj up to @p v. */
    bool allCommitted(const Guid &obj, VersionNum v) const;

    /** Number of replicas holding the tentative update @p id. */
    std::size_t tentativeSpread(const Guid &id) const;

    /** Total sec.push retransmissions across all replicas (the chaos
     *  suite asserts this stays bounded). */
    std::uint64_t pushRetransmits() const;

    /** The dissemination tree (valid when treePush). */
    const DisseminationTree &tree() const { return *tree_; }

    /**
     * Adjust the dissemination tree after membership changes
     * (Section 4.7.2: "notification of a replica's termination ...
     * propagates to parent nodes, which can adjust that object's
     * dissemination tree"): rebuild over the currently-up replicas.
     * Downed replicas drop out; recovered ones rejoin and catch up
     * via anti-entropy or an explicit fetchFromParent().
     */
    void rebuildTree();

    /** The network. */
    Runtime &rt() { return rt_; }

    /** Configuration. */
    const SecondaryConfig &config() const { return cfg_; }

  private:
    friend class SecondaryReplica;

    /** No slot: the tier has never seen the object. */
    static constexpr std::uint32_t noSlot = UINT32_MAX;

    /** The slot of @p obj, assigned on first sight. */
    std::uint32_t slotFor(const Guid &obj);
    /** The slot of @p obj, or noSlot. */
    std::uint32_t findSlot(const Guid &obj) const;

    Runtime &rt_;
    SecondaryConfig cfg_;
    Rng rng_;
    bool antiEntropyOn_ = false;
    std::vector<std::unique_ptr<SecondaryReplica>> replicas_;
    std::unordered_map<NodeId, std::size_t> byNode_;
    std::unique_ptr<DisseminationTree> tree_;

    /** Object GUID -> dense slot.  Only looked up, never iterated. */
    std::unordered_map<Guid, std::uint32_t> slotOf_;
    /** Per slot: the object's one shared version-0 state. */
    std::vector<SharedState> emptyStates_;
    /** Every slot, in GUID order: digests walk objects this way. */
    std::vector<std::uint32_t> slotsByGuid_;
};

} // namespace oceanstore

#endif // OCEANSTORE_CONSISTENCY_SECONDARY_H
