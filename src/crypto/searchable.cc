#include "crypto/searchable.h"

#include <cctype>
#include <cstring>

namespace oceanstore {

SearchableCipher::SearchableCipher(Bytes key)
    : key_(std::move(key))
{
}

Sha1Digest
SearchableCipher::prf(std::string_view word) const
{
    Sha1 h;
    h.update(key_);
    h.update(std::string_view("\x01", 1));
    h.update(word);
    return h.finish();
}

Sha1Digest
SearchableCipher::positionMask(const Sha1Digest &token,
                               std::size_t position) const
{
    // Position mask depends only on the token and the position, so a
    // server holding a trapdoor (= token) can recompute it, but two
    // occurrences of the same word at different positions look
    // unrelated until that word is searched for.
    Sha1 h;
    h.update(token.data(), token.size());
    std::uint8_t pos[8];
    for (int i = 0; i < 8; i++)
        pos[i] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(position) >> (56 - 8 * i));
    h.update(pos, sizeof(pos));
    return h.finish();
}

SearchIndex
SearchableCipher::buildIndex(std::string_view document) const
{
    SearchIndex index;
    auto words = tokenizeWords(document);
    index.maskedTokens = Blob::filled(
        words.size() * SearchIndex::tokenBytes, [&](std::uint8_t *out) {
            for (std::size_t i = 0; i < words.size(); i++) {
                Sha1Digest t = positionMask(prf(words[i]), i);
                std::memcpy(out + i * SearchIndex::tokenBytes, t.data(),
                            t.size());
            }
        });
    return index;
}

SearchTrapdoor
SearchableCipher::trapdoor(std::string_view word) const
{
    std::string lowered(word);
    for (char &c : lowered)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return SearchTrapdoor{prf(lowered)};
}

bool
SearchableCipher::match(const SearchIndex &index,
                        const SearchTrapdoor &trap)
{
    return !matchPositions(index, trap).empty();
}

std::vector<std::size_t>
SearchableCipher::matchPositions(const SearchIndex &index,
                                 const SearchTrapdoor &trap)
{
    // Server-side: recompute the position mask for the trapdoor token
    // at each position; no key material needed.
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < index.size(); i++) {
        Sha1 h;
        h.update(trap.wordToken.data(), trap.wordToken.size());
        std::uint8_t pos[8];
        for (int k = 0; k < 8; k++)
            pos[k] = static_cast<std::uint8_t>(
                static_cast<std::uint64_t>(i) >> (56 - 8 * k));
        h.update(pos, sizeof(pos));
        if (h.finish() == index.token(i))
            hits.push_back(i);
    }
    return hits;
}

std::vector<std::string>
tokenizeWords(std::string_view document)
{
    std::vector<std::string> words;
    std::string cur;
    for (char c : document) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            cur.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        } else if (!cur.empty()) {
            words.push_back(cur);
            cur.clear();
        }
    }
    if (!cur.empty())
        words.push_back(cur);
    return words;
}

} // namespace oceanstore
