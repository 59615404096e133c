#include "erasure/reed_solomon.h"

#include <algorithm>
#include <sstream>

#include "erasure/gf256.h"
#include "util/logging.h"

namespace oceanstore {

ReedSolomonCode::ReedSolomonCode(unsigned k, unsigned t)
    : k_(k), t_(t)
{
    if (k == 0 || t <= k || t > 256)
        fatal("ReedSolomonCode: need 1 <= k < t <= 256");
    // Cauchy rows: 1 / (x ^ y_j) with x = row, y_j = j.  The index sets
    // {k..t-1} and {0..k-1} are disjoint bytes, so x ^ y_j is never
    // zero and every square submatrix is invertible.
    parity_.resize(static_cast<std::size_t>(t - k) * k);
    for (unsigned row = k; row < t; row++) {
        auto x = static_cast<std::uint8_t>(row);
        for (unsigned j = 0; j < k; j++)
            parity_[(row - k) * k + j] =
                gf256::inv(x ^ static_cast<std::uint8_t>(j));
    }
}

std::vector<std::uint8_t>
ReedSolomonCode::generatorRow(unsigned row) const
{
    if (row >= k_) {
        auto first = parity_.begin() + (row - k_) * k_;
        return std::vector<std::uint8_t>(first, first + k_);
    }
    std::vector<std::uint8_t> r(k_, 0);
    r[row] = 1; // systematic identity row
    return r;
}

std::vector<Blob>
ReedSolomonCode::encodeBlobs(const Bytes &data) const
{
    std::size_t frag_size = (data.size() + k_ - 1) / k_;
    if (frag_size == 0)
        frag_size = 1;

    std::vector<Blob> frags;
    frags.reserve(t_);
    // Data stripes; the last one is zero-padded.
    for (unsigned j = 0; j < k_; j++) {
        std::size_t off =
            std::min(static_cast<std::size_t>(j) * frag_size, data.size());
        std::size_t len = std::min(frag_size, data.size() - off);
        frags.push_back(Blob::filled(frag_size, [&](std::uint8_t *out) {
            std::copy_n(data.begin() + off, len, out);
            std::fill(out + len, out + frag_size, 0);
        }));
    }
    // Parity stripes, each filled from the finished data stripes.
    for (unsigned row = k_; row < t_; row++) {
        const std::uint8_t *coeffs = &parity_[(row - k_) * k_];
        frags.push_back(Blob::filled(frag_size, [&](std::uint8_t *out) {
            std::fill(out, out + frag_size, 0);
            for (unsigned j = 0; j < k_; j++)
                gf256::mulAdd(out, frags[j].data(), coeffs[j], frag_size);
        }));
    }
    return frags;
}

std::optional<Bytes>
ReedSolomonCode::decodeViews(const std::vector<FragmentView> &fragments,
                             std::size_t original_size) const
{
    if (fragments.size() != t_)
        fatal("ReedSolomonCode::decode: fragment vector size mismatch");

    // Gather the first k available fragments (data rows first keeps
    // the matrix closer to identity, but any k work).
    std::vector<unsigned> rows;
    for (unsigned i = 0; i < t_ && rows.size() < k_; i++) {
        if (fragments[i].has_value())
            rows.push_back(i);
    }
    if (rows.size() < k_)
        return std::nullopt;

    std::size_t frag_size = fragments[rows[0]]->size();
    for (unsigned r : rows) {
        if (fragments[r]->size() != frag_size)
            fatal("ReedSolomonCode::decode: ragged fragments");
    }

    // Fast path: all data stripes survive.
    bool all_data = true;
    for (unsigned j = 0; j < k_; j++) {
        if (!fragments[j].has_value()) {
            all_data = false;
            break;
        }
    }

    Bytes out;
    out.reserve(original_size);
    // Append a stripe, stopping at original_size.
    auto append = [&](const std::uint8_t *stripe) {
        std::size_t len = std::min(frag_size, original_size - out.size());
        out.insert(out.end(), stripe, stripe + len);
    };

    if (all_data) {
        for (unsigned j = 0; j < k_ && out.size() < original_size; j++)
            append(fragments[j]->data());
    } else {
        // Build the k x k decode matrix and invert it (Gauss-Jordan
        // over GF(256)).
        std::vector<std::vector<std::uint8_t>> a(rows.size());
        std::vector<std::vector<std::uint8_t>> ainv(
            k_, std::vector<std::uint8_t>(k_, 0));
        for (unsigned r = 0; r < k_; r++) {
            a[r] = generatorRow(rows[r]);
            ainv[r][r] = 1;
        }
        for (unsigned col = 0; col < k_; col++) {
            // Find pivot.
            unsigned piv = col;
            while (piv < k_ && a[piv][col] == 0)
                piv++;
            if (piv == k_)
                panic("ReedSolomonCode: singular decode matrix");
            std::swap(a[piv], a[col]);
            std::swap(ainv[piv], ainv[col]);
            std::uint8_t d = gf256::inv(a[col][col]);
            for (unsigned j = 0; j < k_; j++) {
                a[col][j] = gf256::mul(a[col][j], d);
                ainv[col][j] = gf256::mul(ainv[col][j], d);
            }
            for (unsigned r = 0; r < k_; r++) {
                if (r == col || a[r][col] == 0)
                    continue;
                std::uint8_t f = a[r][col];
                for (unsigned j = 0; j < k_; j++) {
                    a[r][j] ^= gf256::mul(f, a[col][j]);
                    ainv[r][j] ^= gf256::mul(f, ainv[col][j]);
                }
            }
        }
        // stripe[j] = sum_r ainv[j][r] * fragment(rows[r]).  A data
        // stripe that survived is its own fragment (its ainv row is a
        // unit vector), so only the lost ones are recomputed.
        Bytes stripe;
        for (unsigned j = 0; j < k_ && out.size() < original_size; j++) {
            if (fragments[j].has_value()) {
                append(fragments[j]->data());
                continue;
            }
            stripe.assign(frag_size, 0);
            for (unsigned r = 0; r < k_; r++) {
                gf256::mulAdd(stripe.data(), fragments[rows[r]]->data(),
                              ainv[j][r], frag_size);
            }
            append(stripe.data());
        }
    }

    if (out.size() != original_size)
        return std::nullopt; // original_size inconsistent with frags
    return out;
}

std::string
ReedSolomonCode::name() const
{
    std::ostringstream os;
    os << "reed-solomon(" << k_ << "/" << t_ << ")";
    return os.str();
}

} // namespace oceanstore
