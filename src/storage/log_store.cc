#include "storage/log_store.h"

#include <algorithm>
#include <limits>

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

/** A free table position. */
constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

std::uint32_t
keyHash(std::string_view key)
{
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(key));
}

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
LogStore::appendRecord(std::uint8_t type, std::string_view key,
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
    if (type == kPut)
        indexPut(key, offset, len, static_cast<std::uint32_t>(value.size()));

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
    const std::optional<std::size_t> pos = position(key);
    if (!pos)
        return false;
    StorageMetricIds &sm = storageMetrics();
    stats_.erases++;
    sm.reg->inc(sm.erases);
    // A full disk cannot take the tombstone: the key stays live (the
    // caller sees false) rather than half-dying in RAM only.
    if (appendRecord(kErase, key, {}) != StorageStatus::Ok)
        return false;
    removeAt(*pos);
    return true;
}

std::optional<ByteSpan>
LogStore::readVerified(std::string_view key, const Slot &slot)
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
    const Slot *slot = find(key);
    if (!slot)
        return std::nullopt;
    return readVerified(key, *slot);
}

std::optional<Bytes>
LogStore::get(const std::string &key)
{
    auto value = view(key);
    if (!value)
        return std::nullopt;
    return Bytes(value->begin(), value->end());
}

std::vector<std::uint32_t>
LogStore::sortedSlots(std::string_view prefix) const
{
    std::vector<std::uint32_t> hits;
    for (std::uint32_t i = 0; i < slots_.size(); i++) {
        if (keyOf(slots_[i]).starts_with(prefix))
            hits.push_back(i);
    }
    std::sort(hits.begin(), hits.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return keyOf(slots_[a]) < keyOf(slots_[b]);
              });
    return hits;
}

void
LogStore::scan(const std::string &prefix,
               const std::function<void(const std::string &,
                                        const Bytes &)> &fn)
{
    // One key and one value buffer for every record: assign() reuses
    // their capacity.
    std::string key;
    Bytes value;
    for (std::uint32_t i : sortedSlots(prefix)) {
        const Slot &slot = slots_[i];
        key.assign(keyOf(slot));
        if (auto span = readVerified(key, slot)) {
            value.assign(span->begin(), span->end());
            fn(key, value);
        }
    }
}

void
LogStore::scanKeys(const std::string &prefix,
                   const std::function<void(const std::string &)> &fn) const
{
    std::string key;
    for (std::uint32_t i : sortedSlots(prefix)) {
        key.assign(keyOf(slots_[i]));
        fn(key);
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

        // The key is read only now that its frame passed the CRC.
        std::string_view key(reinterpret_cast<const char *>(rec) +
                                 kHeaderBytes,
                             key_len);
        if (type == kPut)
            indexPut(key, pos, static_cast<std::uint32_t>(frame),
                     static_cast<std::uint32_t>(val_len));
        else if (auto at = position(key))
            removeAt(*at);
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
    recovery_.liveKeys = slots_.size();
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

std::size_t
LogStore::probe(std::string_view key, std::uint32_t hash) const
{
    const std::size_t mask = table_.size() - 1;
    for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
        const std::uint32_t i = table_[pos];
        if (i == kEmpty)
            return pos;
        if (slots_[i].hash == hash && keyOf(slots_[i]) == key)
            return pos;
    }
}

std::optional<std::size_t>
LogStore::position(std::string_view key) const
{
    if (slots_.empty())
        return std::nullopt;
    const std::size_t pos = probe(key, keyHash(key));
    if (table_[pos] == kEmpty)
        return std::nullopt;
    return pos;
}

const LogStore::Slot *
LogStore::find(std::string_view key) const
{
    const std::optional<std::size_t> pos = position(key);
    return pos ? &slots_[table_[*pos]] : nullptr;
}

void
LogStore::indexPut(std::string_view key, std::uint64_t offset,
                   std::uint32_t recordLen, std::uint32_t valueLen)
{
    // At most half full, so a probe ends within a few positions.
    if (2 * (slots_.size() + 1) > table_.size())
        growTable();
    const std::uint32_t hash = keyHash(key);
    const std::size_t pos = probe(key, hash);
    if (table_[pos] == kEmpty) {
        table_[pos] = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{0, keyArena_.size(), 0, 0,
                              static_cast<std::uint32_t>(key.size()),
                              hash});
        keyArena_.append(key);
    }
    Slot &slot = slots_[table_[pos]];
    slot.recordOffset = offset;
    slot.recordLen = recordLen;
    slot.valueLen = valueLen;
}

void
LogStore::removeAt(std::size_t hole)
{
    const std::size_t mask = table_.size() - 1;
    const std::uint32_t gone = table_[hole];

    // Backward-shift erase: pull each later entry of the probe run
    // into the hole unless its home lies after the hole, so every
    // remaining key stays reachable from its home position.
    for (std::size_t pos = (hole + 1) & mask; table_[pos] != kEmpty;
         pos = (pos + 1) & mask) {
        const std::size_t home = slots_[table_[pos]].hash & mask;
        if (((pos - home) & mask) >= ((pos - hole) & mask)) {
            table_[hole] = table_[pos];
            hole = pos;
        }
    }
    table_[hole] = kEmpty;

    // Keep the slots dense: the last one moves into the freed number.
    deadKeyBytes_ += slots_[gone].keyLen;
    const auto last = static_cast<std::uint32_t>(slots_.size() - 1);
    if (gone != last) {
        std::size_t pos = slots_[last].hash & mask;
        while (table_[pos] != last)
            pos = (pos + 1) & mask;
        table_[pos] = gone;
        slots_[gone] = slots_[last];
    }
    slots_.pop_back();

    if (deadKeyBytes_ > keyArena_.size() - deadKeyBytes_)
        compactArena();
}

void
LogStore::growTable()
{
    table_.assign(std::max<std::size_t>(16, 2 * table_.size()), kEmpty);
    const std::size_t mask = table_.size() - 1;
    for (std::uint32_t i = 0; i < slots_.size(); i++) {
        std::size_t pos = slots_[i].hash & mask;
        while (table_[pos] != kEmpty)
            pos = (pos + 1) & mask;
        table_[pos] = i;
    }
}

void
LogStore::compactArena()
{
    std::string live;
    live.reserve(keyArena_.size() - deadKeyBytes_);
    for (Slot &slot : slots_) {
        const std::string_view key = keyOf(slot);
        slot.keyOffset = live.size();
        live.append(key);
    }
    keyArena_.swap(live);
    deadKeyBytes_ = 0;
}

} // namespace oceanstore
