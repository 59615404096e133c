/**
 * @file
 * Nomadic data and introspection (Sections 1.2 and 4.7).
 *
 * "Thus users will find their project files and email folder on a
 * local machine during the work day, and waiting for them on their
 * home machines at night."
 *
 * A user's working set is hammered from one region of the network;
 * introspective replica management observes the load and floats new
 * replicas toward the readers, cutting read latency.  Cluster
 * recognition groups the co-accessed files, and the prefetcher learns
 * the access pattern.
 */

#include <cstdio>
#include <vector>

#include "core/universe.h"
#include "util/stats.h"

using namespace oceanstore;

int
main()
{
    std::printf("== OceanStore nomadic data ==\n\n");

    UniverseConfig cfg;
    cfg.numServers = 48;
    cfg.archiveOnCommit = false;
    cfg.initialHosts = 1; // start with a single far-away replica
    cfg.replicaPolicy.overloadThreshold = 30;
    cfg.replicaPolicy.disuseThreshold = 0;
    Universe universe(cfg);

    KeyPair user = universe.makeUser();
    ObjectHandle project = universe.createObject(user, "work/project");
    ObjectHandle folder = universe.createObject(user, "work/email");
    std::uint64_t t = 0;
    universe.writeSync(project.makeAppendUpdate(
        toBytes("design document"), 0, {++t, 1}));
    universe.writeSync(folder.makeAppendUpdate(
        toBytes("inbox snapshot"), 0, {++t, 1}));
    universe.advance(10.0);

    // The "office": the five servers nearest the unit square's
    // north-west corner.
    std::vector<std::size_t> office;
    {
        std::vector<std::size_t> order(universe.numServers());
        for (std::size_t i = 0; i < order.size(); i++)
            order[i] = i;
        auto &net = universe.net();
        auto &tier = universe.secondaryTier();
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      auto na = tier.replica(a).nodeId();
                      auto nb = tier.replica(b).nodeId();
                      double da = net.xOf(na) * net.xOf(na) +
                                  net.yOf(na) * net.yOf(na);
                      double db = net.xOf(nb) * net.xOf(nb) +
                                  net.yOf(nb) * net.yOf(nb);
                      return da < db;
                  });
        office.assign(order.begin(), order.begin() + 5);
    }

    auto measure = [&](const char *label) {
        Accumulator lat;
        for (int round = 0; round < 20; round++) {
            for (std::size_t s : office) {
                lat.add(universe.readSync(s, project.guid()).latency);
                lat.add(universe.readSync(s, folder.guid()).latency);
            }
        }
        std::printf("%-22s mean read latency %.1f ms "
                    "(hosts: project=%zu, email=%zu)\n",
                    label, lat.mean() * 1e3,
                    universe.hosts(project.guid()).size(),
                    universe.hosts(folder.guid()).size());
        return lat.mean();
    };

    std::printf("workday begins: reads from the office region\n");
    double before = measure("before migration:");

    // The introspective epoch: observation -> optimization.
    auto actions = universe.runReplicaManagementEpoch();
    unsigned created = 0;
    for (const auto &a : actions) {
        if (a.kind == ReplicaAction::Kind::Create)
            created++;
    }
    std::printf("\nintrospection epoch: %u new floating replicas "
                "created near the load\n",
                created);

    double after = measure("after migration: ");
    std::printf("\nlatency improvement: %.1fx\n", before / after);

    // Cluster recognition noticed the two files travel together.
    double w = universe.semanticGraph().weight(project.guid(),
                                               folder.guid());
    auto clusters = universe.semanticGraph().clusters(w / 2);
    std::printf("\nsemantic distance weight(project, email) = %.1f\n", w);
    std::printf("clusters detected: %zu (the working set should be "
                "one cluster of 2)\n",
                clusters.size());

    // The prefetcher predicts email-after-project.
    universe.readSync(office[0], project.guid());
    auto preds = universe.prefetcher().predict();
    bool predicted = !preds.empty() && preds[0] == folder.guid();
    std::printf("prefetcher predicts email folder next: %d\n",
                predicted);

    std::printf("\n== done ==\n");
    return after < before ? 0 : 1;
}
