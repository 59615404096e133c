/**
 * @file
 * Interned `storage.*` / `recovery.*` metric ids of the log store
 * (registered once, on first use — the same idiom as every other
 * module's MetricIds struct).
 */

#ifndef OCEANSTORE_STORAGE_COUNTERS_H
#define OCEANSTORE_STORAGE_COUNTERS_H

#include "obs/metrics.h"

namespace oceanstore {

struct StorageMetricIds
{
    MetricsRegistry *reg;
    MetricsRegistry::Id puts, gets, erases, syncs, bytesWritten,
        bytesRead, enospc, crcErrors, recoveryReplays, recoveryRecords,
        recoveryTorn, recoveryCrcRejects;

    StorageMetricIds();
};

/** The process-wide interned ids. */
StorageMetricIds &storageMetrics();

} // namespace oceanstore

#endif // OCEANSTORE_STORAGE_COUNTERS_H
