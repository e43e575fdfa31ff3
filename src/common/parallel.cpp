#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cello {

u32 worker_count(u32 threads, size_t total) {
  u32 n = threads != 0 ? threads : std::thread::hardware_concurrency();
  return std::max<u32>(1, static_cast<u32>(std::min<size_t>(n, total)));
}

void parallel_for(u32 threads, size_t total,
                  const std::function<void(size_t job, u32 worker)>& body) {
  if (total == 0) return;
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&](u32 me) {
    for (size_t job; (job = next.fetch_add(1)) < total;) {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        body(job, me);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  const u32 n = worker_count(threads, total);
  std::vector<std::thread> pool;
  pool.reserve(n - 1);
  for (u32 t = 0; t + 1 < n; ++t) pool.emplace_back(worker, t);
  worker(n - 1);  // the calling thread is the n-th worker
  for (auto& th : pool) th.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace cello
