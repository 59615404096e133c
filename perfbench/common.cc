#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>

#include "bench.h"
#include "util/bytes.h"

namespace osbench {

using namespace oceanstore;

namespace {

/** Leading bytes of every payload that are searchable text. */
constexpr std::size_t textHeaderBytes = 64;

} // namespace

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
windowedRate(const std::vector<double> &done_at, double t0, double t1,
             unsigned windows)
{
    if (t1 <= t0 || windows == 0)
        return 0.0;
    double width = (t1 - t0) / windows;
    std::vector<double> rate(windows, 0.0);
    for (double t : done_at) {
        if (t < t0 || t >= t1)
            continue;
        auto w = static_cast<std::size_t>((t - t0) / width);
        rate[std::min<std::size_t>(w, windows - 1)] += 1.0 / width;
    }
    return median(rate);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

ContentModel::ContentModel(std::uint64_t key, const ObjectShape &shape,
                           bool corrupt)
    : key_(key), shape_(shape), corrupt_(corrupt)
{
    history_.emplace_back(); // version 0: empty object
}

ContentModel::Step
ContentModel::step(VersionNum v)
{
    extendTo(v - 1);
    Step s;
    std::uint64_t h = mix64(key_ ^ mix64(v));
    std::size_t bytes = v == 1 ? shape_.initialBytes : shape_.updateBytes;
    s.append = v == 1 || (h % 1000) < shape_.appendFrac * 1000.0;
    // A tagged binary blob: a short header of lowercase words (what the
    // client's search index covers), then bytes >= 0x80, which hold no
    // alphanumeric runs and so add nothing to the index.
    s.plain.resize(bytes);
    std::uint64_t x = h;
    for (std::size_t i = 0; i < bytes; i += 8) {
        x = mix64(x);
        for (std::size_t k = 0; k < 8 && i + k < bytes; k++) {
            std::uint8_t r = static_cast<std::uint8_t>(x >> (8 * k));
            std::size_t pos = i + k;
            if (pos >= textHeaderBytes)
                s.plain[pos] = 0x80 | r;
            else if (pos % 8 == 7)
                s.plain[pos] = ' ';
            else
                s.plain[pos] = static_cast<std::uint8_t>('a' + r % 26);
        }
    }
    if (!s.append) {
        // Replace one existing block; the block count at v-1 is itself
        // a function of (key, versions < v).
        std::size_t blocks =
            std::max<std::size_t>(1, history_[v - 1].size());
        s.position = (h >> 20) % blocks;
    }
    return s;
}

void
ContentModel::extendTo(VersionNum v)
{
    while (history_.size() <= v) {
        VersionNum next = history_.size();
        Step s = step(next);
        std::vector<Block> blocks = history_.back();
        if (s.append) {
            for (std::size_t off = 0; off < s.plain.size();
                 off += shape_.blockBytes) {
                std::size_t n =
                    std::min(shape_.blockBytes, s.plain.size() - off);
                blocks.push_back(std::make_shared<const Bytes>(
                    s.plain.begin() + off, s.plain.begin() + off + n));
            }
        } else {
            blocks[s.position] = std::make_shared<const Bytes>(s.plain);
        }
        history_.push_back(std::move(blocks));
    }
}

Bytes
ContentModel::expected(VersionNum v)
{
    extendTo(v);
    Bytes out;
    for (const Block &b : history_[v])
        out.insert(out.end(), b->begin(), b->end());
    if (corrupt_ && !out.empty())
        out[out.size() / 2] ^= 0x01;
    return out;
}

std::size_t
ContentModel::sizeAt(VersionNum v)
{
    extendTo(v);
    std::size_t n = 0;
    for (const Block &b : history_[v])
        n += b->size();
    return n;
}

std::size_t
crashVictim(Universe &universe, unsigned i)
{
    const auto &pos = universe.topology().positions;
    std::size_t origin = 0;
    double best = 1e9;
    for (std::size_t i = 0; i < pos.size(); i++) {
        double d = std::hypot(pos[i].first - 0.5, pos[i].second - 0.5);
        if (d < best) {
            best = d;
            origin = i;
        }
    }
    std::size_t s = (1 + 17 * static_cast<std::size_t>(i)) % pos.size();
    return s == origin ? (s + 1) % pos.size() : s;
}

double
storedBytes(Universe &universe)
{
    double total = 0.0;
    universe.rt().execute([&] {
        for (std::size_t i = 0; i < universe.numServers(); i++)
            total += static_cast<double>(universe.storageOf(i).disk().size());
        for (unsigned r = 0; r < universe.primaryTier().size(); r++)
            total += static_cast<double>(
                universe.primaryStorage(r).disk().size());
    });
    return total;
}

Update
makeUpdate(const ObjectHandle &handle, const ContentModel::Step &step,
           VersionNum expected_version, Timestamp ts)
{
    if (step.append)
        return handle.makeAppendUpdate(step.plain, expected_version, ts);
    return handle.makeReplaceUpdate(step.position, step.plain,
                                    expected_version, ts);
}

bool
parseArchivedState(const Bytes &state, const Guid &obj, VersionNum &version,
                   std::vector<Bytes> &logical_blocks)
{
    // Layout of DataObject::serializeState: guid, version, physical
    // slots (0 = data blob, 1 = index block of child slots), the root
    // sequence, then the search-index tokens.
    ByteReader r(state);
    if (r.remaining() < Guid::numBytes + 12)
        return false;
    if (Guid::fromBytes(r.getRaw(Guid::numBytes)) != obj)
        return false;
    version = r.getU64();
    std::uint32_t slots = r.getU32();
    std::vector<Bytes> data(slots);
    std::vector<std::vector<std::uint32_t>> children(slots);
    std::vector<bool> isData(slots, false);
    for (std::uint32_t i = 0; i < slots; i++) {
        if (r.remaining() < 5)
            return false;
        std::uint8_t tag = r.getU8();
        if (tag == 0) {
            isData[i] = true;
            data[i] = r.getBlob();
        } else {
            std::uint32_t n = r.getU32();
            if (r.remaining() < 4ull * n)
                return false;
            for (std::uint32_t c = 0; c < n; c++)
                children[i].push_back(r.getU32());
        }
    }
    if (r.remaining() < 4)
        return false;
    std::uint32_t roots = r.getU32();
    if (r.remaining() < 4ull * roots)
        return false;
    std::vector<std::uint32_t> stack;
    for (std::uint32_t i = 0; i < roots; i++)
        stack.push_back(r.getU32());
    std::reverse(stack.begin(), stack.end());
    logical_blocks.clear();
    std::size_t guard = 0;
    while (!stack.empty()) {
        std::uint32_t slot = stack.back();
        stack.pop_back();
        if (slot >= slots || ++guard > 16u * (slots + 1))
            return false;
        if (isData[slot]) {
            logical_blocks.push_back(data[slot]);
        } else {
            const auto &ch = children[slot];
            for (auto it = ch.rbegin(); it != ch.rend(); ++it)
                stack.push_back(*it);
        }
    }
    return true;
}

} // namespace osbench
