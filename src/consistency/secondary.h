/**
 * @file
 * The secondary tier of floating replicas (Section 4.4.3, Figure 5).
 *
 * Secondary replicas do not participate in serialization.  They hold
 * both tentative and committed data: tentative updates spread among
 * them with an epidemic (rumor + anti-entropy) protocol and are
 * ordered optimistically by client timestamp; committed updates
 * arrive from the primary tier down the object's dissemination tree
 * (or, in the epidemic-only ablation, via anti-entropy alone).  An
 * object's tree spans its replica set, the root plus its hosts
 * (DESIGN.md section 23); an object that declared none uses the
 * tier-wide tree over every replica.  Parents can
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
     * Committed object state; on a member of @p obj's replica set an
     * unknown object becomes known here at version 0, sharing the
     * tier's empty state for it.  A non-member gets that shared empty
     * state and records nothing.  The reference is valid until this
     * replica next applies an update to @p obj.
     */
    const DataObject &committedObject(const Guid &obj);

    /** The shared committed state of @p obj, or null if unknown here
     *  (always null on a non-member). */
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

    /** Pull missing committed updates for @p obj from the parent in
     *  @p obj's tree. */
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
     * What a member replica holds of one object (DESIGN.md section
     * 20).  The tier keeps one per member beside the object's tree.
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

    /** This replica's entry for @p obj, or null when the object is
     *  unknown here or this replica is not in its replica set. */
    const Held *find(const Guid &obj) const;
    /** This replica's entry at @p slot, made known at version 0 if
     *  new; null when this replica is not in the slot's replica set. */
    Held *hold(std::uint32_t slot);
    /** Call @p visit on every object held here, in GUID order (the
     *  order digests and repair records are built in). */
    template <typename F> void forEachHeld(F &&visit) const;
    /** Record @p version as forwarded; false if it already was. */
    static bool markForwarded(Held &h, VersionNum version);

    void storeTentative(SharedUpdate u, bool gossip);
    /** Apply committed @p version to @p h; true when it had to be
     *  buffered behind a missing earlier version. */
    bool applyCommitted(Held &h, SharedUpdate u, VersionNum version);
    /** Push committed @p version of the object at @p slot to this
     *  replica's children in its tree, with a retransmit driver per
     *  child.  Runs inside the delivery of @p cause, whose installed
     *  context the fan-out's sends nest under; cause's sender holds
     *  the version, so it is skipped should a rebuilt tree have made
     *  it a child here. */
    void forward(const Message &cause, std::uint32_t slot,
                 const SharedUpdate &u, VersionNum version);
    void drainBuffered(Held &h, const Guid &obj);
    /** Forget what this replica holds of @p obj beyond its entry
     *  (buffered commits, stale marks): it left the replica set. */
    void forget(const Guid &obj);
    void scheduleAntiEntropy();
    void runAntiEntropy();

    SecondaryTier &tier_;
    std::size_t index_;
    NodeId nodeId_ = invalidNode;
    Rng rng_;

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

    /** True when every member of @p obj's replica set has committed
     *  it up to @p v. */
    bool allCommitted(const Guid &obj, VersionNum v) const;

    /** Number of replicas holding the tentative update @p id. */
    std::size_t tentativeSpread(const Guid &id) const;

    /** Total sec.push retransmissions across all replicas (the chaos
     *  suite asserts this stays bounded). */
    std::uint64_t pushRetransmits() const;

    /** The tier-wide dissemination tree: the tree of every object
     *  without a declared replica set. */
    const DisseminationTree &tree() const { return *tree_; }

    /**
     * Make replicas @p hosts hosts of @p obj (DESIGN.md section 23).
     * The object's replica set is replica 0 (the tree root) plus its
     * hosts, and the tier is the one record of it.  The first call
     * declares the set, turning the object from the tier-wide tree to
     * its own tree over the set, rebuilt here once.  Every member then
     * behind the root (a new one, above all) sends sec.fetch to its
     * parent in that tree.
     */
    void addHosts(const Guid &obj, const std::vector<std::size_t> &hosts);

    /**
     * Retire host @p i of @p obj: its state for the object goes, the
     * object's tree is rebuilt, and every member behind the root
     * fetches from its new parent.  The root stays a member.
     */
    void removeHost(const Guid &obj, std::size_t i);

    /** True when replica @p i is one of @p obj's hosts. */
    bool isHost(const Guid &obj, std::size_t i) const;

    /** The hosts of @p obj, ascending; none without a declared set. */
    std::vector<std::size_t> hosts(const Guid &obj) const;

    /** Every object with a declared replica set, in GUID order. */
    std::vector<Guid> declaredObjects() const;

    /** True when @p obj has a declared replica set. */
    bool declared(const Guid &obj) const;

    /** True when replica @p i keeps state for @p obj: it is in the
     *  object's declared set, or the object has none. */
    bool isMember(const Guid &obj, std::size_t i) const;

    /** The tree @p obj's commits travel: its own, or tree(). */
    const DisseminationTree &treeOf(const Guid &obj) const;

    /**
     * Adjust the dissemination trees after membership changes
     * (Section 4.7.2: "notification of a replica's termination ...
     * propagates to parent nodes, which can adjust that object's
     * dissemination tree"): rebuild tree() over the currently-up
     * replicas and every declared set's tree over its up members.
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

    using Held = SecondaryReplica::Held;

    /** One object's replicas: what each member holds, and its tree. */
    struct ReplicaSet
    {
        /** The object's one shared version-0 state. */
        SharedState empty;
        /** Replica indices with an entry, sorted; held is parallel.
         *  A declared set's members are the root (0) and its hosts;
         *  without one, every replica that has held the object. */
        std::vector<std::uint32_t> members;
        std::vector<Held> held;
        /** The tree over a declared set; null when the object has
         *  none, so its commits travel the tier-wide tree. */
        std::unique_ptr<DisseminationTree> tree;
        /** In a declared set: replica 0 is a host, not only the root. */
        bool rootHosts = false;
    };

    /** The slot of @p obj, assigned on first sight. */
    std::uint32_t slotFor(const Guid &obj);
    /** The slot of @p obj, or noSlot. */
    std::uint32_t findSlot(const Guid &obj) const;
    /** Replica @p i's entry at @p slot, or null when it has none
     *  and @p add is false; with @p add it gets a fresh one. */
    Held *heldAt(std::uint32_t slot, std::size_t i, bool add);
    const Held *heldAt(std::uint32_t slot, std::size_t i) const;
    /** The tree commits at @p slot travel. */
    const DisseminationTree &treeAt(std::uint32_t slot) const;
    /** Rebuild @p set's tree over its members (only the up ones when
     *  @p upOnly). */
    void buildTree(ReplicaSet &set, bool upOnly);
    /** After a membership change: every member of @p set behind the
     *  root fetches from its parent in the new tree. */
    void catchUp(const Guid &obj, const ReplicaSet &set);

    Runtime &rt_;
    SecondaryConfig cfg_;
    Rng rng_;
    bool antiEntropyOn_ = false;
    std::vector<std::unique_ptr<SecondaryReplica>> replicas_;
    std::unordered_map<NodeId, std::size_t> byNode_;
    std::unique_ptr<DisseminationTree> tree_;

    /** Object GUID -> dense slot.  Only looked up, never iterated. */
    std::unordered_map<Guid, std::uint32_t> slotOf_;
    /** Per slot: the object's replica set. */
    std::vector<ReplicaSet> sets_;
    /** Every slot, in GUID order: digests walk objects this way. */
    std::vector<std::uint32_t> slotsByGuid_;
};

} // namespace oceanstore

#endif // OCEANSTORE_CONSISTENCY_SECONDARY_H
