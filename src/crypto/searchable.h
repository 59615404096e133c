/**
 * @file
 * Search on encrypted data (Section 4.4.3, citing Song-Wagner-Perrig).
 *
 * The paper's most powerful ciphertext predicate is `search`: a server
 * can test whether an encrypted object contains a word, learning only
 * that a search happened and its boolean result — never the cleartext
 * of the search string, and the server cannot initiate searches on
 * its own.
 *
 * Substitution (documented in DESIGN.md): we implement a simplified
 * word-level scheme in the SWP spirit.  The client tokenizes the
 * plaintext, masks each word token with a per-position keystream, and
 * stores the masked tokens alongside the object.  To search, the
 * client issues a *trapdoor* for the word; the server slides the
 * trapdoor across the masked index and reports containment.  As in
 * SWP, the server learns only positions where the queried word occurs
 * and cannot synthesize trapdoors without the key.
 */

#ifndef OCEANSTORE_CRYPTO_SEARCHABLE_H
#define OCEANSTORE_CRYPTO_SEARCHABLE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/sha1.h"
#include "util/bytes.h"

namespace oceanstore {

/**
 * An encrypted, searchable word index for one object.  The tokens sit
 * in one Blob, so the update that carries an index, its log entries
 * and every replica's object share one buffer (DESIGN.md section 18).
 */
struct SearchIndex
{
    static constexpr std::size_t tokenBytes = sizeof(Sha1Digest);

    /** Masked word tokens, tokenBytes per word position, in order. */
    Blob maskedTokens;

    /** Number of word positions. */
    std::size_t size() const { return maskedTokens.size() / tokenBytes; }

    /** The masked token at word position @p i. */
    Sha1Digest
    token(std::size_t i) const
    {
        Sha1Digest t{};
        std::memcpy(t.data(), maskedTokens.data() + i * tokenBytes,
                    tokenBytes);
        return t;
    }
};

/** The trapdoor a client hands a server to test one word. */
struct SearchTrapdoor
{
    Sha1Digest wordToken; //!< PRF(key, word); reveals nothing else.
};

/**
 * Client-side searchable-encryption engine.
 *
 * Holds the symmetric search key.  Servers only ever see SearchIndex
 * and SearchTrapdoor values and run the static match() routine.
 */
class SearchableCipher
{
  public:
    /** Construct with a symmetric search key. */
    explicit SearchableCipher(Bytes key);

    /**
     * Build the masked index for a document (client side).
     * Words are whitespace-tokenized, lower-cased.
     */
    SearchIndex buildIndex(std::string_view document) const;

    /** Produce a trapdoor for @p word (client side). */
    SearchTrapdoor trapdoor(std::string_view word) const;

    /**
     * Server-side predicate: does the index contain the trapdoor's
     * word?  Needs no key material.
     */
    static bool match(const SearchIndex &index,
                      const SearchTrapdoor &trap);

    /** Positions at which the word occurs (server side). */
    static std::vector<std::size_t>
    matchPositions(const SearchIndex &index, const SearchTrapdoor &trap);

  private:
    Sha1Digest prf(std::string_view word) const;
    Sha1Digest positionMask(const Sha1Digest &token,
                            std::size_t position) const;

    Bytes key_;
};

/** Whitespace/punctuation word tokenizer shared with tests. */
std::vector<std::string> tokenizeWords(std::string_view document);

} // namespace oceanstore

#endif // OCEANSTORE_CRYPTO_SEARCHABLE_H
