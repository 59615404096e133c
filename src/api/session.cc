#include "api/session.h"

#include "util/logging.h"

namespace oceanstore {

namespace {

std::uint64_t g_next_client_id = 100;

/** Seconds read() waits for a fresh enough replica before it returns
 *  the stale one it found. */
constexpr double kMaxWait = 30.0;

} // namespace

Session::Session(Universe &universe, std::size_t home_server,
                 std::uint8_t guarantees)
    : universe_(universe), homeServer_(home_server),
      guarantees_(guarantees), clientId_(g_next_client_id++)
{
    if (home_server >= universe.numServers())
        fatal("Session: home server out of range");
}

Timestamp
Session::makeTimestamp()
{
    Timestamp ts;
    ts.time = static_cast<std::uint64_t>(universe_.rt().now() * 1e6) *
                  1024 +
              (tsCounter_++ % 1024);
    ts.clientId = clientId_;
    return ts;
}

VersionNum
Session::lastWritten(const Guid &obj) const
{
    auto it = written_.find(obj);
    return it == written_.end() ? 0 : it->second;
}

VersionNum
Session::lastRead(const Guid &obj) const
{
    auto it = read_.find(obj);
    return it == read_.end() ? 0 : it->second;
}

WriteResult
Session::write(const Update &u)
{
    if (has(SessionGuarantee::WritesFollowReads)) {
        // The update must not be conditioned on state older than what
        // this session has already observed.
        for (const auto &clause : u.clauses) {
            for (const auto &p : clause.predicates) {
                if (const auto *cv = std::get_if<CompareVersion>(&p)) {
                    if (cv->expected < lastRead(u.objectGuid)) {
                        fatal("Session: writes-follow-reads violation "
                              "(update conditioned on stale version)");
                    }
                }
            }
        }
    }

    // MonotonicWrites: writeSync blocks until serialization, so this
    // session's writes reach the tier strictly in issue order.
    WriteResult wr = universe_.writeSync(u);

    if (wr.completed && wr.committed) {
        auto &w = written_[u.objectGuid];
        w = std::max(w, wr.version);
    }
    if (callback_) {
        UpdateEvent ev;
        ev.object = u.objectGuid;
        ev.committed = wr.committed;
        ev.version = wr.version;
        ev.latency = wr.latency;
        callback_(ev);
    }
    return wr;
}

ReadResult
Session::read(const Guid &obj)
{
    VersionNum floor = 0;
    if (has(SessionGuarantee::ReadYourWrites))
        floor = std::max(floor, lastWritten(obj));
    if (has(SessionGuarantee::MonotonicReads))
        floor = std::max(floor, lastRead(obj));

    double waited = 0.0;
    ReadResult rr = universe_.readSync(homeServer_, obj);
    while (rr.found && rr.version < floor && waited < kMaxWait) {
        // The located replica is too stale for the session's
        // guarantees: let propagation run and retry.
        universe_.advance(0.25);
        waited += 0.25;
        rr = universe_.readSync(homeServer_, obj);
    }
    rr.latency += waited;

    if (rr.found) {
        auto &r = read_[obj];
        r = std::max(r, rr.version);
    }
    return rr;
}

void
Session::onUpdateEvent(std::function<void(const UpdateEvent &)> cb)
{
    callback_ = std::move(cb);
}

} // namespace oceanstore
