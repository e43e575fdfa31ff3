// The one worker-pool helper of the library: SweepRunner fans its cells out
// with it, and the sparse assembler its row ranges.  Threads are started per
// call and joined before it returns, so there is no global pool to size.
#pragma once

#include <cstddef>
#include <functional>

#include "common/types.hpp"

namespace cello {

/// Worker-pool size for `total` jobs (parallel_for uses exactly this many):
/// `threads`, or std::thread::hardware_concurrency() when it is 0, capped at
/// `total` and at least 1.
u32 worker_count(u32 threads, size_t total);

/// Run body(0..total) over a pool of worker_count(threads, total) workers;
/// `worker` identifies the executing worker (0..worker_count-1), so callers
/// can hand each one private reusable state.  The calling thread is one of
/// the workers.  The first exception thrown by any job makes every worker
/// abandon the remaining jobs instead of burning through them; it is
/// rethrown once the workers stop.
void parallel_for(u32 threads, size_t total,
                  const std::function<void(size_t job, u32 worker)>& body);

}  // namespace cello
