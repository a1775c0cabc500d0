// A fixed-size worker pool plus a deterministic ParallelFor. ParallelFor
// runs on a lazily-created process-wide pool (ThreadPool::Global), so a
// call costs a wake/wait handshake instead of N thread spawns — the engine
// issues two calls per fusion round, and cold fuses run ~30+ rounds.
#ifndef KF_COMMON_THREADPOOL_H_
#define KF_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kf {

class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1; 0 means hardware concurrency).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution. Tasks must not throw:
  /// an escaping exception would unwind a worker thread and terminate the
  /// process (ParallelFor wraps its bodies to uphold this).
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have finished.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  /// The process-wide pool backing ParallelFor. Created on first use and
  /// kept for the process lifetime, so worker threads persist across
  /// rounds, engines, and Fuse/Refuse calls. Sized to the hardware
  /// concurrency, with a floor of kMinGlobalPoolThreads so multi-worker
  /// code paths (and TSan interleavings) stay exercised even on tiny
  /// CI containers.
  static ThreadPool& Global();
  static constexpr size_t kMinGlobalPoolThreads = 8;

  /// Total worker threads ever created by ThreadPool instances in this
  /// process. A flat reading across repeated ParallelFor / Fuse / Refuse
  /// calls is the proof that nothing spawns per-call threads.
  static size_t TotalThreadsCreated();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  size_t active_ = 0;
  bool shutdown_ = false;
};

/// Runs fn(i) for i in [0, n) on up to `num_threads` threads (helpers from
/// ThreadPool::Global() plus the calling thread) and blocks until
/// complete. Work is handed out dynamically in contiguous chunks of
/// `grain` indices (0 picks a heuristic); pass grain 1 when each index is
/// already coarse (e.g. one claim-graph shard) so idle workers can steal
/// the tail of a skewed decomposition.
///
/// Guarantees:
/// - num_threads <= 1 runs fn(0..n-1) sequentially on the caller, in
///   order, with no pool interaction at all.
/// - The decomposition never affects results for bodies that write
///   disjoint slots (the engine's determinism contract) — and the 1-worker
///   path is exactly the plain loop.
/// - If a body throws, the first exception is captured and rethrown on
///   the calling thread after all workers stop (remaining chunks are
///   abandoned); the pool itself is unaffected.
/// - Nested calls (a body itself calling ParallelFor) run the inner loop
///   inline on the current thread — re-entry can never deadlock the pool,
///   at the cost of no extra parallelism for the inner loop.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn, size_t grain = 0);

}  // namespace kf

#endif  // KF_COMMON_THREADPOOL_H_
