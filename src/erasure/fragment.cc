#include "erasure/fragment.h"

#include "util/check.h"

namespace oceanstore {

namespace {

/** Encoded size of one proof step: sibling digest plus side byte. */
constexpr std::size_t proofStepBytes = sizeof(Sha1Digest) + 1;

} // namespace

bool
Fragment::verify() const
{
    return MerkleTree::verify(data, proof, archiveGuid.bytes());
}

std::size_t
Fragment::wireSize() const
{
    return data.size() + proof.size() * proofStepBytes + Guid::numBytes + 4;
}

Bytes
Fragment::serialize() const
{
    ByteWriter w;
    w.putRaw(archiveGuid.bytes().data(), Guid::numBytes);
    w.putU32(index);
    w.putBlob(data);
    w.putU32(static_cast<std::uint32_t>(proof.size()));
    for (const MerkleStep &step : proof) {
        w.putRaw(step.sibling.data(), step.sibling.size());
        w.putU8(step.siblingOnLeft ? 1 : 0);
    }
    return w.take();
}

std::optional<Fragment>
Fragment::deserialize(ByteSpan raw)
{
    ByteReader r(raw);
    Fragment f;
    Sha1Digest guid{};
    r.getRaw(guid.data(), guid.size());
    f.archiveGuid = Guid(guid);
    f.index = r.getU32();
    f.data = r.getSharedBlob();
    std::uint32_t steps = r.getU32();
    // An inflated count must not size the proof before the input
    // backs it: every step needs proofStepBytes more bytes.
    if (r.backs(steps, proofStepBytes)) {
        f.proof.reserve(steps);
        for (std::uint32_t i = 0; i < steps; i++) {
            MerkleStep step;
            r.getRaw(step.sibling.data(), step.sibling.size());
            step.siblingOnLeft = r.getU8() != 0;
            f.proof.push_back(step);
        }
    }
    if (!r.ok() || !r.exhausted())
        return std::nullopt;
    return f;
}

FragmentSet
fragmentObject(const ErasureCodec &codec, const Bytes &data)
{
    FragmentSet set;
    set.originalSize = data.size();

    std::vector<Blob> coded = codec.encodeBlobs(data);
    OS_CHECK(coded.size() == codec.totalFragments(),
             "codec produced ", coded.size(), " fragments, expected ",
             codec.totalFragments());
    MerkleTree tree(coded);
    set.archiveGuid = tree.rootGuid();

    set.fragments.reserve(coded.size());
    for (std::size_t i = 0; i < coded.size(); i++) {
        Fragment f;
        f.archiveGuid = set.archiveGuid;
        f.index = static_cast<std::uint32_t>(i);
        f.data = std::move(coded[i]);
        f.proof = tree.path(i);
        set.fragments.push_back(std::move(f));
    }
    return set;
}

std::optional<Bytes>
reassembleObject(const ErasureCodec &codec, const Guid &archive_guid,
                 std::size_t original_size,
                 const std::vector<Fragment> &available)
{
    std::vector<FragmentView> slots(codec.totalFragments());
    for (const Fragment &f : available) {
        if (f.archiveGuid != archive_guid)
            continue; // fragment of some other version
        if (f.index >= slots.size() || slots[f.index].has_value())
            continue;
        if (!f.verify())
            continue; // corrupt: treat as erasure
        slots[f.index] = ByteSpan(f.data);
    }
    return codec.decodeViews(slots, original_size);
}

std::optional<Bytes>
decodeVerified(const ErasureCodec &codec, std::size_t original_size,
               const std::vector<Fragment> &verified)
{
    std::vector<FragmentView> slots(codec.totalFragments());
    for (const Fragment &f : verified) {
        OS_CHECK(f.index < slots.size() && !slots[f.index].has_value(),
                 "decodeVerified: fragment index ", f.index,
                 " out of range or repeated");
        slots[f.index] = ByteSpan(f.data);
    }
    return codec.decodeViews(slots, original_size);
}

} // namespace oceanstore
