#include "erasure/tornado.h"

#include <algorithm>
#include <queue>
#include <sstream>

#include "util/logging.h"
#include "util/random.h"

namespace oceanstore {

TornadoCode::TornadoCode(unsigned k, unsigned t, std::uint64_t seed)
    : k_(k), t_(t)
{
    if (k == 0 || t <= k)
        fatal("TornadoCode: need 1 <= k < t");
    buildGraph(seed);
}

void
TornadoCode::buildGraph(std::uint64_t seed)
{
    Rng rng(seed);
    unsigned checks = t_ - k_;
    checkNeighbors_.resize(checks);

    // Irregular degrees: mostly low-degree checks (cheap to peel) with
    // a tail of higher degrees for coverage, approximating the
    // truncated ideal-soliton shape used by Tornado/LT codes.
    auto sample_degree = [&]() -> unsigned {
        double u = rng.uniform();
        unsigned d;
        if (u < 0.06)
            d = 1; // soliton spike: seeds the peeling process
        else if (u < 0.50)
            d = 2;
        else if (u < 0.78)
            d = 3;
        else if (u < 0.90)
            d = 4;
        else if (u < 0.97)
            d = 5;
        else
            d = 8;
        return std::min(d, k_);
    };

    for (unsigned i = 0; i < checks; i++) {
        unsigned d = sample_degree();
        auto picks = rng.sampleIndices(k_, d);
        checkNeighbors_[i].assign(picks.begin(), picks.end());
        std::sort(checkNeighbors_[i].begin(), checkNeighbors_[i].end());
    }

    // Guarantee every data fragment appears in at least one check so
    // single-fragment losses are always recoverable.
    std::vector<bool> covered(k_, false);
    for (const auto &nb : checkNeighbors_) {
        for (unsigned j : nb)
            covered[j] = true;
    }
    unsigned next_check = 0;
    for (unsigned j = 0; j < k_; j++) {
        if (covered[j])
            continue;
        auto &nb = checkNeighbors_[next_check % checks];
        if (std::find(nb.begin(), nb.end(), j) == nb.end()) {
            nb.push_back(j);
            std::sort(nb.begin(), nb.end());
        }
        next_check++;
    }
}

std::vector<Blob>
TornadoCode::encodeBlobs(const Bytes &data) const
{
    std::size_t frag_size = (data.size() + k_ - 1) / k_;
    if (frag_size == 0)
        frag_size = 1;

    std::vector<Blob> frags;
    frags.reserve(t_);
    for (unsigned j = 0; j < k_; j++) {
        std::size_t off = static_cast<std::size_t>(j) * frag_size;
        frags.push_back(Blob::filled(frag_size, [&](std::uint8_t *out) {
            for (std::size_t i = 0; i < frag_size; i++)
                out[i] = off + i < data.size() ? data[off + i] : 0;
        }));
    }
    for (unsigned c = 0; c < t_ - k_; c++) {
        frags.push_back(Blob::filled(frag_size, [&](std::uint8_t *out) {
            std::fill(out, out + frag_size, 0);
            for (unsigned j : checkNeighbors_[c]) {
                for (std::size_t i = 0; i < frag_size; i++)
                    out[i] ^= frags[j][i];
            }
        }));
    }
    return frags;
}

std::optional<Bytes>
TornadoCode::decodeViews(const std::vector<FragmentView> &fragments,
                         std::size_t original_size) const
{
    if (fragments.size() != t_)
        fatal("TornadoCode::decode: fragment vector size mismatch");

    std::size_t frag_size = 0;
    for (const auto &f : fragments) {
        if (f.has_value()) {
            frag_size = f->size();
            break;
        }
    }
    if (frag_size == 0)
        return std::nullopt;

    std::vector<Bytes> data(k_);
    std::vector<bool> known(k_, false);
    for (unsigned j = 0; j < k_; j++) {
        if (fragments[j].has_value()) {
            data[j].assign(fragments[j]->begin(), fragments[j]->end());
            known[j] = true;
        }
    }

    // Peeling decoder: a check with exactly one unknown neighbor
    // yields that neighbor as the XOR of the check and its known
    // neighbors.  Iterate to fixpoint.
    unsigned checks = t_ - k_;
    std::vector<bool> used(checks, false);
    bool progress = true;
    while (progress) {
        progress = false;
        for (unsigned c = 0; c < checks; c++) {
            if (used[c] || !fragments[k_ + c].has_value())
                continue;
            unsigned unknown = 0, missing = 0;
            for (unsigned j : checkNeighbors_[c]) {
                if (!known[j]) {
                    unknown++;
                    missing = j;
                }
            }
            if (unknown != 1)
                continue;
            Bytes val(fragments[k_ + c]->begin(),
                      fragments[k_ + c]->end());
            for (unsigned j : checkNeighbors_[c]) {
                if (j == missing)
                    continue;
                for (std::size_t i = 0; i < frag_size; i++)
                    val[i] ^= data[j][i];
            }
            data[missing] = std::move(val);
            known[missing] = true;
            used[c] = true;
            progress = true;
        }
    }

    if (!std::all_of(known.begin(), known.end(),
                     [](bool b) { return b; })) {
        return std::nullopt;
    }

    Bytes out;
    out.reserve(original_size);
    for (unsigned j = 0; j < k_ && out.size() < original_size; j++) {
        for (std::size_t i = 0;
             i < frag_size && out.size() < original_size; i++) {
            out.push_back(data[j][i]);
        }
    }
    if (out.size() != original_size)
        return std::nullopt;
    return out;
}

std::string
TornadoCode::name() const
{
    std::ostringstream os;
    os << "tornado(" << k_ << "/" << t_ << ")";
    return os.str();
}

} // namespace oceanstore
