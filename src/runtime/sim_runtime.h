/**
 * @file
 * The old name of a sim-kind Runtime (runtime/runtime.h), which
 * perfbench/ still spells; delete with ROADMAP item 9.
 */

#ifndef OCEANSTORE_RUNTIME_SIM_RUNTIME_H
#define OCEANSTORE_RUNTIME_SIM_RUNTIME_H

#include "runtime/runtime.h"

namespace oceanstore {

using SimRuntime = Runtime;

} // namespace oceanstore

#endif // OCEANSTORE_RUNTIME_SIM_RUNTIME_H
