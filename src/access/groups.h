/**
 * @file
 * Working groups (Section 4.2).
 *
 * "More complicated access control policies, such as working groups,
 * are constructed from these two [reader restriction and writer
 * restriction]."  A WorkingGroup is exactly that construction: an
 * admin-maintained membership roster whose current members are
 * *materialized* into an object's ACL — each member's signing key
 * gets a Write entry, re-certified by the object owner whenever the
 * roster changes.  Expulsion therefore composes with the existing
 * revocation story: re-materialize the ACL (writer side) and rotate
 * the read key (reader side, src/access/keydist).
 */

#ifndef OCEANSTORE_ACCESS_GROUPS_H
#define OCEANSTORE_ACCESS_GROUPS_H

#include <set>
#include <string>

#include "access/acl.h"

namespace oceanstore {

/** An administered membership roster. */
class WorkingGroup
{
  public:
    /**
     * @param name  human-readable group name
     * @param admin key pair that administers the roster
     */
    WorkingGroup(std::string name, const KeyPair &admin);

    /** The group's name. */
    const std::string &name() const { return name_; }

    /**
     * Admit a member (by signing key).  Only meaningful when invoked
     * by the admin — enforced by requiring the admin key pair.
     * @return false if @p by is not the group admin.
     */
    bool admit(const KeyPair &by, const Bytes &member_pub);

    /** Expel a member. @return false if not admin or not a member. */
    bool expel(const KeyPair &by, const Bytes &member_pub);

    /** Current membership test. */
    bool isMember(const Bytes &member_pub) const;

    /** Number of members. */
    std::size_t size() const { return members_.size(); }

    /** Roster epoch: bumps on every admit/expel. */
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Materialize the roster into an ACL: @p base plus a Write grant
     * for every current member.  The caller (the object owner)
     * re-issues the ACL certificate from the result; stale
     * materializations are superseded exactly as any ACL update.
     */
    Acl materializeAcl(const Acl &base,
                       std::uint8_t privileges =
                           static_cast<std::uint8_t>(Privilege::Write))
        const;

  private:
    std::string name_;
    KeyPair admin_;
    std::set<Bytes> members_;
    std::uint64_t epoch_ = 0;
};

} // namespace oceanstore

#endif // OCEANSTORE_ACCESS_GROUPS_H
