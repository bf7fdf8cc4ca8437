// One process-wide thread pool and the data-parallel loop built on it.
//
// The audit pipeline is embarrassingly parallel along two axes: structure
// induction trains one independent classifier per class attribute (sec. 5),
// and data checking scores each record independently (Def. 7/8 are
// per-record). Every parallel loop in the process is dispatched through
// ParallelFor, which runs on ONE pool created on first use with
// HardwareThreads() workers. A call's `num_threads` is its width: at most
// ResolveThreadCount(num_threads) threads, the caller included, work on
// that loop, so a width never exceeds what was asked for and the pool size
// caps how many threads run at once. Loops nest safely: the caller drains
// its own loop, so an inner ParallelFor issued from a pool worker always
// makes progress even when every other worker is busy.
//
// Parallel runs are bitwise-reproducible regardless of width because
//   * every output is written to a pre-assigned slot (no reduction order
//     dependence), and
//   * stochastic tasks derive their seed from TaskSeed(base, task_id)
//     (SplitMix64 child streams) instead of sharing an engine.

#ifndef DQ_COMMON_PARALLEL_H_
#define DQ_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace dq {

/// \brief Number of hardware threads; always >= 1.
int HardwareThreads();

/// \brief Maps a user thread-count setting to an effective count: any
/// non-positive value (0 = auto, negatives included) becomes
/// HardwareThreads(). One documented behavior for every CLI and for every
/// ParallelFor width.
int ResolveThreadCount(int requested);

/// \brief Deterministic per-task child seed: the same (base_seed, task_id)
/// pair yields the same stream on every run and thread schedule.
uint64_t TaskSeed(uint64_t base_seed, uint64_t task_id);

/// \brief Process-wide thread-pool activity counters, maintained with
/// relaxed atomics by every pool. The observability layer exports them as
/// gauges (pool.* in the metrics dump); they are monotone over the process
/// lifetime.
struct PoolStats {
  uint64_t pools_created = 0;
  uint64_t tasks_executed = 0;    ///< index ranges run by pooled loops
  uint64_t peak_queue_depth = 0;  ///< deepest backlog any pool ever saw
};

PoolStats GlobalPoolStats();

/// \brief Fixed-size thread pool with a shared FIFO task queue. The
/// process pool behind ParallelFor is one of these; constructing others is
/// only useful in tests.
class ThreadPool {
 public:
  /// \brief Spawns ResolveThreadCount(num_threads) workers.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// \brief Enqueues a task; the future resolves when it finishes (and
  /// carries any exception the task threw).
  std::future<void> Submit(std::function<void()> fn);

  /// \brief Runs fn(i) for every i in [0, n), blocking until done, with at
  /// most `width` participants (the caller plus up to width - 1 workers;
  /// width <= 0 means every worker). Participants claim contiguous index
  /// ranges whose size is derived from n and the width, so long loops pay
  /// one atomic per range, not per item. The caller participates, so this
  /// is safe to call from code that itself runs on pool workers. Callers
  /// keep determinism by writing results to pre-assigned slots. The first
  /// exception thrown by any item is rethrown in the caller after the
  /// batch completes.
  void RunBatch(size_t n, const std::function<void(size_t)>& fn,
                int width = 0);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// \brief Data-parallel loop: runs fn(i) for i in [0, n) on the process
/// pool with width ResolveThreadCount(num_threads) (0 = hardware
/// concurrency). Executes inline when the width or n is 1.
void ParallelFor(int num_threads, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace dq

#endif  // DQ_COMMON_PARALLEL_H_
