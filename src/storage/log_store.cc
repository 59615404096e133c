#include "storage/log_store.h"

#include "obs/profiler.h"
#include "storage/counters.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace oceanstore {

StorageMetricIds::StorageMetricIds()
    : reg(&MetricsRegistry::global()),
      puts(reg->counter("storage.puts")),
      gets(reg->counter("storage.gets")),
      erases(reg->counter("storage.erases")),
      syncs(reg->counter("storage.syncs")),
      bytesWritten(reg->counter("storage.bytes_written")),
      bytesRead(reg->counter("storage.bytes_read")),
      enospc(reg->counter("storage.enospc")),
      crcErrors(reg->counter("storage.crc_errors")),
      recoveryReplays(reg->counter("recovery.replays")),
      recoveryRecords(reg->counter("recovery.records")),
      recoveryTorn(reg->counter("recovery.torn_truncations")),
      recoveryCrcRejects(reg->counter("recovery.crc_rejects"))
{
}

StorageMetricIds &
storageMetrics()
{
    static StorageMetricIds ids;
    return ids;
}

namespace {

/** Record types. */
constexpr std::uint8_t kPut = 1;
constexpr std::uint8_t kErase = 2;

/** Frame header: crc(4) + type(1) + keyLen(4) + valLen(4). */
constexpr std::uint64_t kHeaderBytes = 13;

std::uint32_t
loadU32(const std::uint8_t *p)
{
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
}

void
storeU32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

} // namespace

LogStore::LogStore(DiskImage &disk, DiskFaultInjector *faults,
                   LogStoreConfig cfg)
    : disk_(disk), faults_(faults), cfg_(cfg)
{
    recover();
}

StorageStatus
LogStore::appendRecord(std::uint8_t type, const std::string &key,
                       ByteSpan value)
{
    const auto len = static_cast<std::uint32_t>(kHeaderBytes + key.size() +
                                                value.size());
    StorageMetricIds &sm = storageMetrics();
    if (disk_.wouldOverflow(len)) {
        // Disk full degrades, never aborts: the write is refused with
        // a counted error while every read keeps serving.
        stats_.enospcErrors++;
        sm.reg->inc(sm.enospc);
        return StorageStatus::NoSpace;
    }

    // Frame in place at the image tail: header, key and value are
    // copied in once, and the checksum is taken where they lie.
    std::uint8_t header[kHeaderBytes] = {};
    header[4] = type;
    storeU32(&header[5], static_cast<std::uint32_t>(key.size()));
    storeU32(&header[9], static_cast<std::uint32_t>(value.size()));
    const std::uint64_t offset = disk_.size();
    Bytes &image = disk_.bytes;
    image.insert(image.end(), header, header + kHeaderBytes);
    image.insert(image.end(), key.begin(), key.end());
    image.insert(image.end(), value.begin(), value.end());
    std::uint8_t *rec = image.data() + offset;
    storeU32(rec, crc32(rec + 4, len - 4));
    if (type == kPut) {
        index_[key] = Slot{offset, len,
                           static_cast<std::uint32_t>(value.size())};
    } else {
        index_.erase(key);
    }

    stats_.bytesWritten += len;
    sm.reg->inc(sm.bytesWritten, len);
    if (faults_)
        stats_.modeledLatency += faults_->ioLatency(len);
    if (cfg_.syncEachPut)
        sync();
    return StorageStatus::Ok;
}

StorageStatus
LogStore::put(const std::string &key, ByteSpan value)
{
    StorageMetricIds &sm = storageMetrics();
    stats_.puts++;
    sm.reg->inc(sm.puts);
    return appendRecord(kPut, key, value);
}

bool
LogStore::erase(const std::string &key)
{
    if (!index_.count(key))
        return false;
    StorageMetricIds &sm = storageMetrics();
    stats_.erases++;
    sm.reg->inc(sm.erases);
    // A full disk cannot take the tombstone: the key stays live (the
    // caller sees false) rather than half-dying in RAM only.
    return appendRecord(kErase, key, {}) == StorageStatus::Ok;
}

std::optional<ByteSpan>
LogStore::readVerified(const std::string &key, const Slot &slot)
{
    const std::uint8_t *rec = disk_.bytes.data() + slot.recordOffset;
    StorageMetricIds &sm = storageMetrics();
    stats_.bytesRead += slot.recordLen;
    sm.reg->inc(sm.bytesRead, slot.recordLen);
    if (faults_)
        stats_.modeledLatency += faults_->ioLatency(slot.recordLen);

    // Serve-time verification: media rot after recovery must never
    // hand corrupt bytes to a caller as if they were stored ones.
    if (loadU32(rec) != crc32(rec + 4, slot.recordLen - 4)) {
        stats_.crcErrors++;
        sm.reg->inc(sm.crcErrors);
        logError("storage: checksum mismatch serving key '", key,
                 "' (record at ", slot.recordOffset, ")");
        return std::nullopt;
    }
    return ByteSpan(rec + kHeaderBytes + key.size(), slot.valueLen);
}

std::optional<ByteSpan>
LogStore::view(const std::string &key)
{
    StorageMetricIds &sm = storageMetrics();
    stats_.gets++;
    sm.reg->inc(sm.gets);
    auto it = index_.find(key);
    if (it == index_.end())
        return std::nullopt;
    return readVerified(key, it->second);
}

std::optional<Bytes>
LogStore::get(const std::string &key)
{
    auto value = view(key);
    if (!value)
        return std::nullopt;
    return Bytes(value->begin(), value->end());
}

void
LogStore::scan(const std::string &prefix,
               const std::function<void(const std::string &,
                                        const Bytes &)> &fn)
{
    // One buffer for every record: assign() reuses its capacity.
    Bytes value;
    for (auto it = index_.lower_bound(prefix); it != index_.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        if (auto span = readVerified(it->first, it->second)) {
            value.assign(span->begin(), span->end());
            fn(it->first, value);
        }
    }
}

void
LogStore::scanKeys(const std::string &prefix,
                   const std::function<void(const std::string &)> &fn) const
{
    for (auto it = index_.lower_bound(prefix); it != index_.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        fn(it->first);
    }
}

void
LogStore::sync()
{
    if (disk_.synced == disk_.size())
        return;
    StorageMetricIds &sm = storageMetrics();
    stats_.syncs++;
    sm.reg->inc(sm.syncs);
    disk_.synced = disk_.size();
}

void
LogStore::recover()
{
    StorageMetricIds &sm = storageMetrics();
    sm.reg->inc(sm.recoveryReplays);

    std::uint64_t pos = 0;
    const std::uint64_t size = disk_.size();
    while (pos < size) {
        // Structural sanity first: an incomplete header or lengths
        // running past the image mean the tail was torn mid-append.
        if (size - pos < kHeaderBytes)
            break;
        const std::uint8_t *rec = disk_.bytes.data() + pos;
        std::uint8_t type = rec[4];
        std::uint64_t key_len = loadU32(&rec[5]);
        std::uint64_t val_len = loadU32(&rec[9]);
        std::uint64_t frame = kHeaderBytes + key_len + val_len;
        bool sane = (type == kPut || type == kErase) &&
                    frame <= size - pos;
        if (!sane)
            break;

        if (loadU32(rec) != crc32(rec + 4, frame - 4)) {
            // Checksum-corrupt record: reject loudly, resynchronize at
            // the declared frame end (see the header-comment caveat on
            // corrupted length fields).
            recovery_.crcRejects++;
            sm.reg->inc(sm.recoveryCrcRejects);
            logError("storage: recovery rejected corrupt record at ",
                     pos, " (", frame, " bytes)");
            pos += frame;
            continue;
        }

        std::string key(reinterpret_cast<const char *>(rec) +
                            kHeaderBytes,
                        key_len);
        if (type == kPut) {
            index_[key] = Slot{pos, static_cast<std::uint32_t>(frame),
                               static_cast<std::uint32_t>(val_len)};
        } else {
            index_.erase(key);
        }
        recovery_.recordsReplayed++;
        sm.reg->inc(sm.recoveryRecords);
        pos += frame;
    }

    if (pos < size) {
        // Torn tail: physically truncate so future appends extend a
        // well-formed log, and the loss is visible in the report.
        recovery_.tornBytesTruncated = size - pos;
        sm.reg->inc(sm.recoveryTorn);
        disk_.bytes.resize(pos);
    }
    disk_.synced = disk_.size();
    recovery_.bytesReplayed = pos;
    recovery_.liveKeys = index_.size();
    if (faults_) {
        recovery_.modeledLatency = faults_->ioLatency(pos);
        stats_.modeledLatency += recovery_.modeledLatency;
    }
    stats_.bytesRead += pos;
    sm.reg->inc(sm.bytesRead, pos);

    // Recovery-phase profiling: the replay's modeled IO cost lands in
    // the active profiler's "storage.recover" phase, so a restart's
    // latency decomposition shows recovery next to the protocol
    // phases (Figure 5/6 discipline).
    if (PhaseProfiler *pp = PhaseProfiler::active()) {
        pp->onEventFired(pp->intern("storage.recover"),
                         recovery_.modeledLatency);
    }
}

} // namespace oceanstore
