#include "storage/node_storage.h"

#include "util/check.h"

namespace oceanstore {

NodeStorage::NodeStorage(StorageSetup setup)
    : setup_(setup), faults_(setup.faults)
{
    disk_.capacity = setup_.faults.capacityBytes;
    build();
}

LogStore &
NodeStorage::backend()
{
    OS_CHECK(store_ != nullptr,
             "storage access on a crashed node: the caller skipped "
             "the restart lifecycle");
    return *store_;
}

DiskFaultInjector::CrashReport
NodeStorage::crash()
{
    DiskFaultInjector::CrashReport report = faults_.crash(disk_);
    store_.reset();
    lastRecovery_ = RecoveryReport{};
    return report;
}

void
NodeStorage::restart()
{
    OS_CHECK(store_ == nullptr,
             "restart of a storage handle that never crashed");
    build();
}

void
NodeStorage::build()
{
    store_ = std::make_unique<LogStore>(
        disk_, &faults_, LogStoreConfig{setup_.syncEachPut});
    lastRecovery_ = store_->recovery();
}

} // namespace oceanstore
