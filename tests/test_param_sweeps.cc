/** @file Parameterized property sweeps across module configurations. */

#include <optional>
#include <tuple>

#include <gtest/gtest.h>

#include "bloom/location_service.h"
#include "consistency/byzantine.h"
#include "crypto/block_cipher.h"
#include "erasure/availability.h"
#include "erasure/reed_solomon.h"
#include "plaxton/mesh.h"
#include "runtime/runtime.h"
#include "sim/topology.h"

namespace oceanstore {
namespace {

// --- Reed-Solomon geometry sweep ------------------------------------

class RsGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(RsGeometry, RandomKSubsetsDecode)
{
    auto [k, t] = GetParam();
    ReedSolomonCode code(k, t);
    Rng rng(k * 31 + t);
    Bytes data(1000 + k * 7);
    for (auto &x : data)
        x = static_cast<std::uint8_t>(rng.next());
    auto frags = code.encode(data);

    for (int trial = 0; trial < 8; trial++) {
        auto keep = rng.sampleIndices(t, k);
        std::vector<std::optional<Bytes>> slots(t);
        for (auto i : keep)
            slots[i] = frags[i];
        auto out = code.decode(slots, data.size());
        ASSERT_TRUE(out.has_value()) << "k=" << k << " t=" << t;
        EXPECT_EQ(*out, data);
    }
}

TEST_P(RsGeometry, KMinusOneNeverDecodes)
{
    auto [k, t] = GetParam();
    if (k < 2)
        GTEST_SKIP();
    ReedSolomonCode code(k, t);
    Rng rng(k * 131 + t);
    Bytes data(512);
    for (auto &x : data)
        x = static_cast<std::uint8_t>(rng.next());
    auto frags = code.encode(data);
    auto keep = rng.sampleIndices(t, k - 1);
    std::vector<std::optional<Bytes>> slots(t);
    for (auto i : keep)
        slots[i] = frags[i];
    EXPECT_FALSE(code.decode(slots, data.size()).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RsGeometry,
    ::testing::Values(std::pair<unsigned, unsigned>{1, 2},
                      std::pair<unsigned, unsigned>{2, 4},
                      std::pair<unsigned, unsigned>{4, 8},
                      std::pair<unsigned, unsigned>{8, 32},
                      std::pair<unsigned, unsigned>{16, 32},
                      std::pair<unsigned, unsigned>{16, 64},
                      std::pair<unsigned, unsigned>{32, 64},
                      std::pair<unsigned, unsigned>{63, 255}));

// --- Bloom filter geometry sweep --------------------------------------

class BloomGeometry
    : public ::testing::TestWithParam<std::pair<std::size_t, unsigned>>
{
};

TEST_P(BloomGeometry, NoFalseNegativesEver)
{
    auto [bits, hashes] = GetParam();
    BloomFilter f(bits, hashes);
    Rng rng(bits + hashes);
    std::vector<Guid> inserted;
    for (int i = 0; i < 64; i++) {
        inserted.push_back(Guid::random(rng));
        f.insert(inserted.back());
    }
    for (const auto &g : inserted)
        EXPECT_TRUE(f.mayContain(g));
}

TEST_P(BloomGeometry, FalsePositiveRateMatchesPrediction)
{
    auto [bits, hashes] = GetParam();
    BloomFilter f(bits, hashes);
    Rng rng(bits * 3 + hashes);
    for (int i = 0; i < 64; i++)
        f.insert(Guid::random(rng));
    int fp = 0;
    const int probes = 4000;
    for (int i = 0; i < probes; i++)
        fp += f.mayContain(Guid::random(rng)) ? 1 : 0;
    double measured = static_cast<double>(fp) / probes;
    double predicted = f.falsePositiveRate();
    EXPECT_NEAR(measured, predicted, 0.05 + predicted);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomGeometry,
    ::testing::Values(std::pair<std::size_t, unsigned>{256, 2},
                      std::pair<std::size_t, unsigned>{512, 3},
                      std::pair<std::size_t, unsigned>{1024, 4},
                      std::pair<std::size_t, unsigned>{4096, 4},
                      std::pair<std::size_t, unsigned>{8192, 6}));

// --- block cipher block-size sweep -------------------------------------

class CipherSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(CipherSizes, RoundTripAllSizes)
{
    BlockCipher c(toBytes("sweep-key"));
    Rng rng(GetParam() + 5);
    Bytes plain(GetParam());
    for (auto &x : plain)
        x = static_cast<std::uint8_t>(rng.next());
    for (std::uint64_t pos : {0ull, 1ull, 77ull, (1ull << 40)}) {
        Bytes cipher = c.encrypt(pos, plain);
        EXPECT_EQ(c.decrypt(pos, cipher), plain) << "pos " << pos;
        if (!plain.empty()) {
            EXPECT_NE(cipher, plain);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CipherSizes,
                         ::testing::Values(0, 1, 19, 20, 21, 64, 1000,
                                           4096, 65536));

// --- availability parameter sweep ---------------------------------------

class AvailabilitySweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(AvailabilitySweep, ClosedFormMatchesMonteCarlo)
{
    auto [f, pct_down] = GetParam();
    std::uint64_t n = 5000;
    std::uint64_t m = n * pct_down / 100;
    std::uint64_t rf = f / 2;
    double closed = documentAvailability(n, m, f, rf);
    Rng rng(f * 100 + pct_down);
    double sim = simulateAvailability(n, m, f, rf, 30000, rng);
    EXPECT_NEAR(sim, closed, 0.015)
        << "f=" << f << " down=" << pct_down << "%";
}

INSTANTIATE_TEST_SUITE_P(
    Params, AvailabilitySweep,
    ::testing::Combine(::testing::Values(4u, 8u, 16u, 32u),
                       ::testing::Values(10u, 25u, 40u)));

// --- PBFT tier-size sweep -------------------------------------------------

class PbftTierSize : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PbftTierSize, CommitsWithMaxToleratedCrashes)
{
    unsigned m = GetParam();
    Simulator sim;
    NetworkConfig ncfg;
    ncfg.jitter = 0.02;
    Network net(sim, ncfg);
    KeyRegistry registry;

    unsigned n = 3 * m + 1;
    std::vector<std::pair<double, double>> pos;
    for (unsigned r = 0; r < n; r++)
        pos.emplace_back(0.5 + 0.01 * r, 0.5);
    PbftConfig cfg;
    cfg.m = m;
    Runtime rt(sim, net);
    PbftCluster cluster(rt, pos, registry, cfg);
    cluster.executor = [](unsigned, const Bytes &, std::uint64_t) {
        return Bytes{42};
    };
    auto client = cluster.makeClient(0.4, 0.4, 1);

    // Crash exactly m backups (never the leader).
    for (unsigned i = 0; i < m; i++)
        cluster.replica(n - 1 - i).setFault(ReplicaFault::Crash);

    bool done = false;
    client->submit(toBytes("cmd"),
                   [&](const PbftOutcome &) { done = true; });
    sim.runUntil(120.0);
    EXPECT_TRUE(done) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(TierSizes, PbftTierSize,
                         ::testing::Values(1u, 2u, 3u, 4u));

// --- mesh size sweep ---------------------------------------------------------

class MeshSize : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MeshSize, RootConsistencyAndLocate)
{
    std::size_t n = GetParam();
    Simulator sim;
    NetworkConfig ncfg;
    ncfg.jitter = 0;
    Network net(sim, ncfg);
    Rng rng(n * 7 + 1);
    auto topo = makeGeometricTopology(n, 3, rng);

    struct Sink : public SimNode
    {
        void handleMessage(const Message &) override {}
    };
    std::vector<Sink> sinks(n);
    std::vector<NodeId> members;
    for (std::size_t i = 0; i < n; i++)
        members.push_back(net.addNode(&sinks[i],
                                      topo.positions[i].first,
                                      topo.positions[i].second));
    Runtime rt(sim, net);
    PlaxtonMesh mesh(rt, members, rng);

    for (int trial = 0; trial < 5; trial++) {
        Guid g = Guid::random(rng);
        NodeId root = mesh.route(members[0], g).root;
        for (std::size_t i = 1; i < n; i += std::max<std::size_t>(
                                          1, n / 7)) {
            EXPECT_EQ(mesh.route(members[i], g).root, root);
        }
        NodeId storer = rng.pick(members);
        mesh.publish(g, storer);
        auto res = mesh.locate(rng.pick(members), g);
        EXPECT_TRUE(res.found);
        EXPECT_EQ(res.location, storer);
        mesh.unpublish(g, storer);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MeshSize,
                         ::testing::Values(4u, 16u, 64u, 200u));

} // namespace
} // namespace oceanstore
