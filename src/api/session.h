/**
 * @file
 * Sessions and session guarantees (Sections 2 and 4.6).
 *
 * "An application writer views the OceanStore as a number of
 * sessions.  Each session is a sequence of read and write requests
 * related to one another through the session guarantees, in the style
 * of the Bayou system.  Session guarantees dictate the level of
 * consistency seen by a session's reads and writes; they can range
 * from supporting extremely loose consistency semantics to supporting
 * the ACID semantics favored in databases."
 *
 * The four Bayou guarantees are supported individually or combined;
 * the transactional facade (transaction.h) layers ACID on top.  The
 * API also provides callbacks notifying the application of update
 * commit/abort events.
 */

#ifndef OCEANSTORE_API_SESSION_H
#define OCEANSTORE_API_SESSION_H

#include <functional>
#include <map>

#include "core/universe.h"

namespace oceanstore {

/** Bayou-style session guarantees (bit flags). */
enum class SessionGuarantee : std::uint8_t
{
    None = 0,
    ReadYourWrites = 1,   //!< Reads see this session's writes.
    MonotonicReads = 2,   //!< Reads never go back in time.
    WritesFollowReads = 4, //!< Writes are ordered after reads seen.
    MonotonicWrites = 8,  //!< This session's writes apply in order.
    All = 15,
};

/** Combine guarantee flags. */
constexpr std::uint8_t
operator|(SessionGuarantee a, SessionGuarantee b)
{
    return static_cast<std::uint8_t>(a) | static_cast<std::uint8_t>(b);
}

/** Notification of an update's fate (the API's callback feature). */
struct UpdateEvent
{
    Guid object;
    bool committed = false;
    VersionNum version = 0;
    double latency = 0.0;
};

/**
 * A client session against the OceanStore.
 *
 * Reads route through the two-tier locator from the session's home
 * server; writes go to the primary tier.  Guarantee enforcement is
 * by *waiting*: when a located replica is too stale to satisfy a
 * guarantee, the session lets the dissemination/epidemic machinery
 * run (bounded by kMaxWait) and retries, charging the wait to the
 * observed latency.
 */
class Session
{
  public:
    /**
     * @param universe    the system
     * @param home_server server index reads start from
     * @param guarantees  OR of SessionGuarantee flags
     */
    Session(Universe &universe, std::size_t home_server,
            std::uint8_t guarantees);

    /** Timestamps for optimistic ordering (Section 4.4.3). */
    Timestamp makeTimestamp();

    /**
     * Write through the primary tier.  With MonotonicWrites this
     * blocks until serialization, preserving issue order trivially;
     * with WritesFollowReads the update must be conditioned on a
     * version >= the session's last read of the object (checked).
     */
    WriteResult write(const Update &u);

    /** Read under the session's guarantees. */
    ReadResult read(const Guid &obj);

    /** Register for commit/abort notifications. */
    void onUpdateEvent(std::function<void(const UpdateEvent &)> cb);

    /** Guarantee flags in force. */
    std::uint8_t guarantees() const { return guarantees_; }

    /** Version this session last wrote per object. */
    VersionNum lastWritten(const Guid &obj) const;

    /** Version this session last read per object. */
    VersionNum lastRead(const Guid &obj) const;

  private:
    bool has(SessionGuarantee g) const
    {
        return guarantees_ & static_cast<std::uint8_t>(g);
    }

    Universe &universe_;
    std::size_t homeServer_;
    std::uint8_t guarantees_;
    std::uint64_t clientId_;
    std::uint64_t tsCounter_ = 0;
    std::map<Guid, VersionNum> written_;
    std::map<Guid, VersionNum> read_;
    std::function<void(const UpdateEvent &)> callback_;
};

} // namespace oceanstore

#endif // OCEANSTORE_API_SESSION_H
