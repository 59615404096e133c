/**
 * @file
 * Access control (Section 4.2).
 *
 * Two primitives, from which richer policies are composed:
 *
 *  - *Reader restriction*: data is encrypted; read permission is the
 *    possession of the key.  Revocation requires re-encryption and
 *    new-key distribution (see KeyDistributor).
 *
 *  - *Writer restriction*: all writes are signed so well-behaved
 *    servers can verify them against an ACL.  "The owner of an object
 *    can securely choose the ACL x for an object foo by providing a
 *    signed certificate that translates to 'Owner says use ACL x for
 *    object foo'."  ACL entries name the signing key — not the
 *    explicit identity — of the privileged users and are publicly
 *    readable so servers can check whether a write is allowed.
 */

#ifndef OCEANSTORE_ACCESS_ACL_H
#define OCEANSTORE_ACCESS_ACL_H

#include <map>
#include <optional>
#include <vector>

#include "crypto/guid.h"
#include "crypto/keys.h"
#include "util/bytes.h"

namespace oceanstore {

/** Privileges an ACL entry can grant. */
enum class Privilege : std::uint8_t
{
    Read = 1,  //!< May receive the read key (advisory; see keydist).
    Write = 2, //!< Updates signed by this key are accepted.
    Owner = 4, //!< May replace the ACL itself.
};

/** One ACL entry: a privilege bound to a signing key. */
struct AclEntry
{
    Bytes signerPublicKey; //!< The key, not an identity.
    std::uint8_t privileges = 0; //!< OR of Privilege bits.

    /** True when this entry grants @p p. */
    bool grants(Privilege p) const
    {
        return privileges & static_cast<std::uint8_t>(p);
    }
};

/** A publicly readable access control list. */
class Acl
{
  public:
    /** Add an entry granting @p privileges to @p key. */
    void grant(const Bytes &key, std::uint8_t privileges);

    /** Remove every entry for @p key. @return true if any existed. */
    bool revoke(const Bytes &key);

    /** True when some entry for @p key grants @p p. */
    bool allows(const Bytes &key, Privilege p) const;

    /** All entries. */
    const std::vector<AclEntry> &entries() const { return entries_; }

    /** Canonical serialization (for certificates and storage). */
    Bytes serialize() const;

    /** Parse a serialized ACL; nullopt on malformed input. */
    static std::optional<Acl> deserialize(const Bytes &payload);

  private:
    std::vector<AclEntry> entries_;
};

/**
 * The owner's signed statement "use ACL x for object foo"
 * (Section 4.2).  Servers verify the certificate before enforcing
 * the named ACL.
 */
struct AclCertificate
{
    Guid object;          //!< foo
    Guid aclGuid;         //!< x (hash of the ACL's serialization)
    Bytes ownerPublicKey; //!< Who says so.
    Signature signature;  //!< Owner's signature over (object, aclGuid).

    /** Bytes covered by the signature. */
    Bytes signedPayload() const;

    /** Issue a certificate signed with the owner's key pair. */
    static AclCertificate issue(const Guid &object, const Acl &acl,
                                const KeyPair &owner);

    /**
     * Verify: the signature checks out under the embedded owner key,
     * and that key actually owns the object (self-certifying GUID
     * check is the caller's job if the name is known).
     */
    bool verify(const KeyRegistry &registry) const;
};

/**
 * Server-side write admission (Section 4.2): a write is applied only
 * when signed by a key the object's certified ACL grants Write.
 */
class WriteGuard
{
  public:
    /** Install the certified ACL for an object. */
    void install(const AclCertificate &cert, const Acl &acl,
                 const KeyRegistry &registry);

    /**
     * Check an update: signature valid under the writer key, and that
     * key has Write (or Owner) privilege in the installed ACL.
     * Objects with no installed ACL reject all writes (the owner
     * installs the ACL at object creation).
     */
    bool admits(const Guid &object, const Bytes &writer_key,
                const Bytes &signed_payload, const Signature &sig,
                const KeyRegistry &registry) const;

    /** The installed ACL for an object, if any. */
    const Acl *aclFor(const Guid &object) const;

  private:
    std::map<Guid, Acl> acls_;
};

} // namespace oceanstore

#endif // OCEANSTORE_ACCESS_ACL_H
