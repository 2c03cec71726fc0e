// A small fixed-size thread pool with a deterministic parallel_for.
//
// Built for the parallel analysis pipeline: work is partitioned into
// *statically assigned* contiguous chunks (no work stealing, no dynamic
// scheduling), so a given (n, workers) pair always produces the same
// index -> worker assignment.  Combined with per-worker private state and an
// ordered merge of per-chunk outputs, this makes parallel execution
// reproducible bit-for-bit regardless of thread timing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gpures::common {

class ThreadPool {
 public:
  /// Spawns exactly `workers` threads (at least 1).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue one task; the future reports completion (and rethrows any
  /// exception the task threw).
  std::future<void> submit(std::function<void()> task);

  /// Run fn(index, worker) for every index in [0, n).  Indices are split
  /// into size() contiguous chunks; chunk w runs sequentially on one thread
  /// and is passed worker id w, so per-worker state (parse ranges, join
  /// shards) is never shared.  Blocks until all chunks finish; the first
  /// exception thrown by any chunk is rethrown on the caller.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t index,
                                             std::size_t worker)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace gpures::common
