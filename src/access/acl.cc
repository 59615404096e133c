#include "access/acl.h"

#include <algorithm>

#include "util/check.h"

namespace oceanstore {

void
Acl::grant(const Bytes &key, std::uint8_t privileges)
{
    OS_DCHECK(!key.empty(), "Acl::grant: empty signer key");
    for (auto &e : entries_) {
        if (e.signerPublicKey == key) {
            e.privileges |= privileges;
            return;
        }
    }
    entries_.push_back(AclEntry{key, privileges});
}

bool
Acl::revoke(const Bytes &key)
{
    auto it = std::remove_if(entries_.begin(), entries_.end(),
                             [&](const AclEntry &e) {
                                 return e.signerPublicKey == key;
                             });
    bool removed = it != entries_.end();
    entries_.erase(it, entries_.end());
    return removed;
}

bool
Acl::allows(const Bytes &key, Privilege p) const
{
    for (const auto &e : entries_) {
        if (e.signerPublicKey == key &&
            (e.grants(p) || e.grants(Privilege::Owner))) {
            return true;
        }
    }
    return false;
}

Bytes
Acl::serialize() const
{
    ByteWriter w;
    w.putU32(static_cast<std::uint32_t>(entries_.size()));
    for (const auto &e : entries_) {
        w.putBlob(e.signerPublicKey);
        w.putU8(e.privileges);
    }
    return w.take();
}

std::optional<Acl>
Acl::deserialize(const Bytes &payload)
{
    Acl acl;
    ByteReader r(payload);
    std::uint32_t n = r.getU32();
    // An entry is at least a key length and a privilege byte.
    if (r.backs(n, 4 + 1)) {
        for (std::uint32_t i = 0; i < n; i++) {
            AclEntry e;
            e.signerPublicKey = r.getBlob();
            e.privileges = r.getU8();
            acl.entries_.push_back(std::move(e));
        }
    }
    if (!r.ok())
        return std::nullopt;
    return acl;
}

Bytes
AclCertificate::signedPayload() const
{
    ByteWriter w;
    w.putRaw(object.toBytes());
    w.putRaw(aclGuid.toBytes());
    return w.take();
}

AclCertificate
AclCertificate::issue(const Guid &object, const Acl &acl,
                      const KeyPair &owner)
{
    AclCertificate cert;
    cert.object = object;
    cert.aclGuid = Guid::hashOf(acl.serialize());
    cert.ownerPublicKey = owner.publicKey;
    cert.signature = KeyRegistry::sign(owner, cert.signedPayload());
    return cert;
}

bool
AclCertificate::verify(const KeyRegistry &registry) const
{
    return registry.verify(ownerPublicKey, signedPayload(), signature);
}

void
WriteGuard::install(const AclCertificate &cert, const Acl &acl,
                    const KeyRegistry &registry)
{
    if (!cert.verify(registry))
        return; // unsigned or forged certificate: ignore
    if (Guid::hashOf(acl.serialize()) != cert.aclGuid)
        return; // certificate names a different ACL
    acls_[cert.object] = acl;
}

bool
WriteGuard::admits(const Guid &object, const Bytes &writer_key,
                   const Bytes &signed_payload, const Signature &sig,
                   const KeyRegistry &registry) const
{
    auto it = acls_.find(object);
    if (it == acls_.end())
        return false;
    if (!it->second.allows(writer_key, Privilege::Write))
        return false;
    return registry.verify(writer_key, signed_payload, sig);
}

const Acl *
WriteGuard::aclFor(const Guid &object) const
{
    auto it = acls_.find(object);
    return it == acls_.end() ? nullptr : &it->second;
}

} // namespace oceanstore
