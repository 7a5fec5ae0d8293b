#ifndef HPDR_CORE_THREAD_POOL_HPP
#define HPDR_CORE_THREAD_POOL_HPP

/// \file thread_pool.hpp
/// Task-queue thread pool backing the StdThread device adapter and the
/// pipeline's chunk execution engine. One pool per process (like an OpenMP
/// runtime). parallel_for splits an index space into contiguous ranges and
/// executes them on the workers plus the calling thread; the first
/// exception wins and is rethrown on the caller.
///
/// Unlike the original single-slot fork-join design, any number of
/// parallel_for invocations may be in flight at once and they may *nest*:
/// a chunk-level task may run a codec kernel that itself calls
/// parallel_for. Each invocation is a Batch; helper tickets for a batch sit
/// in a shared FIFO that every worker drains. Nesting cannot deadlock
/// because a batch's caller always participates and drains the whole index
/// space itself if no helper ever picks a ticket up; joins first *help*
/// (run other queued tickets) and only then block on the batch's condition
/// variable — no busy-wait, so a long-running chunk does not burn a core.
///
/// Quota accounting (DESIGN.md §10): a batch normally requests one helper
/// ticket per extra pool slot, which lets a single large caller monopolize
/// the pool. The serving layer's fair scheduler instead binds a *share* to
/// each job thread (ScopedShare): while bound, every parallel_for issued
/// from that thread caps its helper tickets at share−1, so concurrent jobs
/// split the pool proportionally to their scheduler weights instead of
/// first-come-takes-all. The share is read through an atomic on every
/// batch, so the scheduler can re-apportion live (jobs finishing return
/// their slots to the remaining jobs without any pool coordination).
/// Withheld tickets are counted (tickets_capped) for svc telemetry.
///
/// Ambient context (DESIGN.md §9.1): a batch carries its caller's request
/// trace (telemetry::current_trace()) and cancel token
/// (fault::current_cancel()). Every thread that runs ranges of the batch —
/// a pool worker, or a joining thread helping another caller's batch —
/// installs both for those ranges and restores its own afterwards, so
/// bodies see the caller's trace lineage and deadline without any
/// capture-and-reinstall of their own. Bodies still poll the token
/// themselves (fault::poll_cancel()) at their own granularity. The slot
/// share (ScopedShare) is deliberately *not* carried: it caps the caller's
/// top-level batches only.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/cancel.hpp"
#include "telemetry/trace_context.hpp"

namespace hpdr {

class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads = default_threads()) {
    spawn(std::max(1u, threads));
  }

  ~ThreadPool() { shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned concurrency() const {
    return threads_.load(std::memory_order_relaxed);
  }

  /// Pool width for fresh pools: HPDR_THREADS env var if set (clamped to
  /// >= 1), else set_default_threads(), else hardware concurrency.
  static unsigned default_threads() {
    if (const char* env = std::getenv("HPDR_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n >= 1) return static_cast<unsigned>(n);
    }
    const unsigned hinted = default_hint().load(std::memory_order_relaxed);
    if (hinted > 0) return hinted;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }

  /// Override the width the lazily-constructed instance() will use (CLI
  /// --threads). Takes effect for pools constructed afterwards; call
  /// resize() to change a live pool.
  static void set_default_threads(unsigned n) {
    default_hint().store(n, std::memory_order_relaxed);
  }

  /// Worker slot of the current thread: 1..concurrency()-1 for pool
  /// workers, 0 for the main thread and any thread the pool does not own.
  /// Telemetry uses this to record per-thread chunk assignment.
  static int worker_id() { return tls_worker_id(); }

  /// Rebuild the pool at a new width. Requires the pool to be idle (no
  /// parallel_for in flight); benchmark harnesses call this between
  /// thread-count sweep points.
  void resize(unsigned threads) {
    threads = std::max(1u, threads);
    if (threads == concurrency()) return;
    shutdown();
    {
      std::lock_guard<std::mutex> g(queue_mu_);
      stop_ = false;
    }
    spawn(threads);
  }

  /// Bind a slot share to the calling thread for the lifetime of the
  /// object: parallel_for calls issued from this thread (the svc job
  /// runner) enqueue at most share−1 helper tickets, where the share is
  /// re-read from `slots` on every call — the fair scheduler re-apportions
  /// a live job by storing a new value. Scopes nest; the innermost binding
  /// wins (a nested kernel inherits its job's share through the TLS of the
  /// job thread, not of the pool workers, which is exactly the top-level
  /// chunk loop the scheduler wants to cap).
  class ScopedShare {
   public:
    explicit ScopedShare(const std::atomic<unsigned>* slots)
        : prev_(tls_share()) {
      tls_share() = slots;
    }
    ~ScopedShare() { tls_share() = prev_; }
    ScopedShare(const ScopedShare&) = delete;
    ScopedShare& operator=(const ScopedShare&) = delete;

   private:
    const std::atomic<unsigned>* prev_;
  };

  /// Slot share bound to the current thread; UINT_MAX when unbound.
  static unsigned current_share() {
    const std::atomic<unsigned>* s = tls_share();
    if (!s) return ~0u;
    return std::max(1u, s->load(std::memory_order_relaxed));
  }

  /// Helper tickets actually enqueued across all batches (monotonic).
  std::uint64_t tickets_issued() const {
    return tickets_issued_.load(std::memory_order_relaxed);
  }
  /// Helper tickets withheld because the caller's ScopedShare capped the
  /// batch below the free pool width (svc fairness accounting).
  std::uint64_t tickets_capped() const {
    return tickets_capped_.load(std::memory_order_relaxed);
  }

  /// Threads currently executing batch ranges (pool occupancy).
  unsigned active() const { return active_.load(std::memory_order_relaxed); }

  /// High-water mark of active() since the last reset_peak().
  unsigned peak_active() const {
    return peak_active_.load(std::memory_order_relaxed);
  }
  void reset_peak() { peak_active_.store(0, std::memory_order_relaxed); }

  /// Ranges executed across all batches (monotonic; telemetry).
  std::uint64_t ranges_executed() const {
    return ranges_.load(std::memory_order_relaxed);
  }

  /// Run f(i) for i in [0, n), parallelized across the pool and the
  /// calling thread. Blocks until done; rethrows the first exception.
  /// Reentrant: may be called concurrently from many threads and from
  /// inside another parallel_for body. f runs under the caller's trace
  /// context and cancel token on whichever thread executes it.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& f) {
    if (n == 0) return;
    const unsigned full =
        static_cast<unsigned>(std::min<std::size_t>(concurrency(), n));
    const unsigned width = std::min(full, current_share());
    if (width < full)
      tickets_capped_.fetch_add(full - width, std::memory_order_relaxed);
    if (width <= 1) {
      for (std::size_t i = 0; i < n; ++i) f(i);
      return;
    }
    auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->body = &f;
    batch->grain = std::max<std::size_t>(1, n / (4 * width));
    batch->trace = telemetry::current_trace();
    batch->cancel = fault::current_cancel();
    {
      std::lock_guard<std::mutex> g(queue_mu_);
      // One helper ticket per extra slot; a ticket that is never picked up
      // costs nothing — the caller drains the index space regardless.
      for (unsigned t = 0; t + 1 < width; ++t) queue_.push_back(batch);
    }
    tickets_issued_.fetch_add(width - 1, std::memory_order_relaxed);
    if (width == 2)
      queue_cv_.notify_one();
    else
      queue_cv_.notify_all();
    participate(*batch);  // caller is always a participant
    join(*batch);
    if (batch->error) std::rethrow_exception(batch->error);
  }

  /// Process-wide pool (lazily constructed, like omp's runtime).
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

 private:
  /// One parallel_for invocation. Helper tickets hold shared_ptrs, so a
  /// late ticket dispatched after the caller returned only touches a live
  /// object, finds the index space drained, and exits.
  struct Batch {
    std::atomic<std::size_t> next{0};     ///< first unclaimed index
    std::size_t n = 0;                    ///< index-space size
    std::size_t grain = 1;                ///< indices claimed per grab
    const std::function<void(std::size_t)>* body = nullptr;
    telemetry::TraceContext trace;        ///< caller's trace, for participants
    fault::CancelToken cancel;            ///< caller's ambient cancel token
    std::atomic<unsigned> participants{0};  ///< threads inside participate()
    std::atomic<bool> failed{false};      ///< early-exit flag on error
    std::exception_ptr error;             ///< first exception (under mu)
    std::atomic<bool> done{false};
    std::mutex mu;
    std::condition_variable cv;
  };

  static std::atomic<unsigned>& default_hint() {
    static std::atomic<unsigned> hint{0};
    return hint;
  }

  static int& tls_worker_id() {
    thread_local int id = 0;
    return id;
  }

  static const std::atomic<unsigned>*& tls_share() {
    thread_local const std::atomic<unsigned>* share = nullptr;
    return share;
  }

  void spawn(unsigned threads) {
    threads_.store(threads, std::memory_order_relaxed);
    workers_.resize(threads - 1 > 0 ? threads - 1 : 0);
    for (unsigned w = 0; w < workers_.size(); ++w)
      workers_[w] = std::thread([this, w] { worker_loop(w + 1); });
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> g(queue_mu_);
      stop_ = true;
    }
    queue_cv_.notify_all();
    for (auto& w : workers_)
      if (w.joinable()) w.join();
    workers_.clear();
    std::lock_guard<std::mutex> g(queue_mu_);
    queue_.clear();  // orphaned tickets; their batches complete via callers
  }

  /// Claim and run ranges until the batch's index space is drained (or the
  /// batch failed). Every thread that touches a batch goes through here, so
  /// completion is exactly "no participants left and nothing unclaimed" —
  /// and installing the caller's context here covers every range.
  void participate(Batch& b) {
    const telemetry::TraceScope trace_scope(b.trace);
    const fault::CancelScope cancel_scope(b.cancel);
    b.participants.fetch_add(1, std::memory_order_acq_rel);
    const unsigned now = active_.fetch_add(1, std::memory_order_relaxed) + 1;
    unsigned peak = peak_active_.load(std::memory_order_relaxed);
    while (peak < now &&
           !peak_active_.compare_exchange_weak(peak, now,
                                               std::memory_order_relaxed)) {
    }
    while (!b.failed.load(std::memory_order_relaxed)) {
      const std::size_t begin =
          b.next.fetch_add(b.grain, std::memory_order_relaxed);
      if (begin >= b.n) break;
      const std::size_t end = std::min(begin + b.grain, b.n);
      ranges_.fetch_add(1, std::memory_order_relaxed);
      try {
        for (std::size_t i = begin; i < end; ++i) (*b.body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> g(b.mu);
        if (!b.error) b.error = std::current_exception();
        b.failed.store(true, std::memory_order_relaxed);
        break;
      }
    }
    active_.fetch_sub(1, std::memory_order_relaxed);
    // Last participant out (with the space drained) completes the batch.
    // A failed batch counts as drained: remaining indices are abandoned.
    if (b.participants.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        (b.next.load(std::memory_order_acquire) >= b.n ||
         b.failed.load(std::memory_order_relaxed))) {
      std::lock_guard<std::mutex> g(b.mu);
      b.done.store(true, std::memory_order_release);
      b.cv.notify_all();
    }
  }

  /// Wait for a batch's in-flight participants. First help with whatever
  /// else is queued (this is what makes nesting efficient: an inner join
  /// executes other inner batches instead of idling), then block on the
  /// batch's condition variable — no spinning.
  void join(Batch& b) {
    while (!b.done.load(std::memory_order_acquire)) {
      std::shared_ptr<Batch> other;
      {
        std::lock_guard<std::mutex> g(queue_mu_);
        if (!queue_.empty()) {
          other = std::move(queue_.front());
          queue_.pop_front();
        }
      }
      if (other) {
        participate(*other);
        continue;
      }
      std::unique_lock<std::mutex> lk(b.mu);
      b.cv.wait(lk, [&] { return b.done.load(std::memory_order_relaxed); });
    }
  }

  void worker_loop(unsigned slot) {
    tls_worker_id() = static_cast<int>(slot);
    while (true) {
      std::shared_ptr<Batch> b;
      {
        std::unique_lock<std::mutex> lk(queue_mu_);
        queue_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        if (stop_) return;
        b = std::move(queue_.front());
        queue_.pop_front();
      }
      participate(*b);
    }
  }

  std::vector<std::thread> workers_;
  std::atomic<unsigned> threads_{1};
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  bool stop_ = false;
  std::atomic<unsigned> active_{0};
  std::atomic<unsigned> peak_active_{0};
  std::atomic<std::uint64_t> ranges_{0};
  std::atomic<std::uint64_t> tickets_issued_{0};
  std::atomic<std::uint64_t> tickets_capped_{0};
};

}  // namespace hpdr

#endif  // HPDR_CORE_THREAD_POOL_HPP
