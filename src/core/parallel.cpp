#include "spotbid/core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>

#include "spotbid/core/contracts.hpp"
#include "spotbid/core/metrics.hpp"

namespace spotbid::core {

namespace {

thread_local bool t_in_parallel_region = false;

/// Scheduler telemetry. Everything here carries the "parallel." prefix,
/// which Snapshot::deterministic() drops: chunk counts and latencies vary
/// with the thread count by design (see core/metrics.hpp).
struct ParallelMetrics {
  metrics::Counter& invocations;
  metrics::Counter& serial_invocations;
  metrics::Counter& cutover_serial;
  metrics::Counter& chunks;
  metrics::Histogram& chunk_seconds;
};

ParallelMetrics& pm() {
  static ParallelMetrics m{
      metrics::Registry::global().counter("parallel.invocations"),
      metrics::Registry::global().counter("parallel.serial_invocations"),
      metrics::Registry::global().counter("parallel.cutover_serial"),
      metrics::Registry::global().counter("parallel.chunks"),
      metrics::Registry::global().timer("parallel.chunk_seconds"),
  };
  return m;
}

/// Adaptive serial-cutover policy. Recruiting pool helpers costs queue
/// locking, condition-variable wake-ups, and cache-cold starts — tens of
/// microseconds end to end before the first helper touches an index. A
/// range whose total work is below that budget loses by going parallel
/// (a pooled fig5-style sweep once measured speedup 0.65 on exactly such
/// a configuration). parallel_for therefore times a small inline
/// probe of the range on the calling thread, estimates the per-item cost,
/// and finishes inline unless the remaining work can pay for the dispatch.
/// The probe runs real indices — every index still executes exactly once,
/// in a schedule the determinism contract already permits — so the
/// observable result is unchanged; only the worker placement adapts.
constexpr double kMinProbeSeconds = 2e-6;         ///< probe until this much is measured
constexpr double kSerialCutoverSeconds = 120e-6;  ///< est. remaining below this: stay inline
constexpr double kTargetChunkSeconds = 40e-6;     ///< size chunks to at least this much work

/// RAII flag so nested parallel_for calls (directly or through library
/// code the body happens to call) degrade to serial inline execution.
class RegionGuard {
 public:
  RegionGuard() : previous_(t_in_parallel_region) { t_in_parallel_region = true; }
  ~RegionGuard() { t_in_parallel_region = previous_; }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;

 private:
  bool previous_;
};

int env_thread_override() {
  // Read once at startup, before any worker thread exists, and nothing in
  // the process calls setenv.
  const char* raw = std::getenv("SPOTBID_THREADS");  // NOLINT(concurrency-mt-unsafe)
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || value < 1 || value > 4096) return 0;
  return static_cast<int>(value);
}

/// Shared bookkeeping of one parallel_for call. Workers claim chunks from
/// an atomic cursor; the first failing chunk (lowest start index) wins the
/// exception slot so the rethrown error does not depend on scheduling.
struct ForLoopState {
  std::atomic<std::size_t> next{0};
  std::size_t n = 0;
  std::size_t grain = 1;
  const std::function<void(std::size_t)>* body = nullptr;

  std::atomic<bool> cancelled{false};
  std::mutex error_mutex;
  std::size_t error_chunk = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;

  void run_chunks() {
    RegionGuard guard;
    for (;;) {
      const std::size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n || cancelled.load(std::memory_order_relaxed)) return;
      const std::size_t end = std::min(begin + grain, n);
      pm().chunks.increment();
      try {
        metrics::ScopedTimer chunk_timer{pm().chunk_seconds};
        for (std::size_t i = begin; i < end; ++i) (*body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock{error_mutex};
        if (begin < error_chunk) {
          error_chunk = begin;
          error = std::current_exception();
        }
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
};

}  // namespace

int default_thread_count() {
  if (const int env = env_thread_override(); env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

bool in_parallel_region() { return t_in_parallel_region; }

struct ThreadPool::State {
  std::mutex mutex;
  std::condition_variable wake;
  std::deque<std::function<void()>> queue;
  bool stopping = false;
};

ThreadPool::ThreadPool(int threads) : state_(std::make_unique<State>()) {
  const int count = threads > 0 ? threads : default_thread_count();
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock{state_->mutex};
    state_->stopping = true;
  }
  state_->wake.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  SPOTBID_EXPECT(task != nullptr, "ThreadPool::submit: null task");
  {
    std::lock_guard<std::mutex> lock{state_->mutex};
    SPOTBID_EXPECT(!state_->stopping, "ThreadPool::submit: pool is shutting down");
    state_->queue.push_back(std::move(task));
  }
  state_->wake.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock{state_->mutex};
      state_->wake.wait(lock, [&] { return state_->stopping || !state_->queue.empty(); });
      if (state_->queue.empty()) return;  // stopping and drained
      task = std::move(state_->queue.front());
      state_->queue.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;  // sized from SPOTBID_THREADS / hardware_concurrency
  return pool;
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body, int threads) {
  SPOTBID_EXPECT(body != nullptr, "parallel_for: null body");
  SPOTBID_EXPECT(threads >= 0, "parallel_for: negative thread count");
  if (n == 0) return;
  pm().invocations.increment();

  const int requested = threads > 0 ? threads : default_thread_count();
  // Serial fast path: trivial ranges, an explicit single thread, or a call
  // from inside another parallel region (re-entering the pool from a pool
  // worker could otherwise deadlock on a full queue of blocked parents).
  if (n == 1 || requested == 1 || t_in_parallel_region) {
    pm().serial_invocations.increment();
    RegionGuard guard;
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Inline probe: run a geometrically growing prefix of the range on the
  // calling thread until enough wall time accumulates to estimate the
  // per-item cost. A probe exception propagates directly — consistent with
  // the lowest-faulting-chunk contract, since the probe is chunk zero.
  std::size_t done = 0;
  double probe_seconds = 0.0;
  {
    RegionGuard guard;
    std::size_t batch = 1;
    while (done < n && probe_seconds < kMinProbeSeconds) {
      const std::size_t end = std::min(n, done + batch);
      const auto start = std::chrono::steady_clock::now();
      for (; done < end; ++done) body(done);
      probe_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      batch *= 8;
    }
  }

  const std::size_t remaining_items = n - done;
  const double per_item = probe_seconds / static_cast<double>(done);
  const double remaining_seconds = per_item * static_cast<double>(remaining_items);
  if (remaining_items == 0 || remaining_seconds < kSerialCutoverSeconds) {
    // Too cheap for the pool to beat the calling thread: finish inline.
    pm().serial_invocations.increment();
    pm().cutover_serial.increment();
    RegionGuard guard;
    for (std::size_t i = done; i < n; ++i) body(i);
    return;
  }

  auto state = std::make_shared<ForLoopState>();
  state->n = n;
  state->body = &body;
  state->next.store(done, std::memory_order_relaxed);

  // Size the crew so every worker has at least one chunk's worth of
  // measured work, and the grain so chunks are big enough to amortize
  // dispatch (kTargetChunkSeconds) yet small enough to balance uneven
  // item costs (a few chunks per worker) without per-index queue traffic.
  const auto chunk_budget = static_cast<std::size_t>(remaining_seconds / kTargetChunkSeconds);
  const std::size_t workers = std::min<std::size_t>(static_cast<std::size_t>(requested),
                                                    std::max<std::size_t>(2, chunk_budget));
  const std::size_t balance_grain = std::max<std::size_t>(1, remaining_items / (workers * 4));
  const std::size_t cost_grain =
      static_cast<std::size_t>(kTargetChunkSeconds / per_item) + 1;
  state->grain = std::max(balance_grain, std::min(cost_grain, remaining_items));

  // The calling thread is worker #0; helpers come from the shared pool.
  // Helpers that find the range already drained exit immediately, so a
  // busy pool only costs latency, never correctness.
  const std::size_t helpers = std::min<std::size_t>(
      workers - 1, (remaining_items + state->grain - 1) / state->grain - 1);

  auto remaining = std::make_shared<std::atomic<std::size_t>>(helpers);
  auto done_mutex = std::make_shared<std::mutex>();
  auto done_cv = std::make_shared<std::condition_variable>();
  for (std::size_t h = 0; h < helpers; ++h) {
    ThreadPool::global().submit([state, remaining, done_mutex, done_cv]() mutable {
      state->run_chunks();
      // Drop the loop-state reference (and any captured exception_ptr)
      // BEFORE the completion signal, so everything this helper releases is
      // ordered ahead of the caller's wake-up and never overlaps the
      // caller's rethrow. exception_ptr refcounting lives in libstdc++.so,
      // which ThreadSanitizer cannot instrument — an unordered late release
      // here shows up as a (false-positive) race on the exception object.
      state.reset();
      if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock{*done_mutex};
        done_cv->notify_all();
      }
    });
  }

  state->run_chunks();

  if (helpers > 0) {
    std::unique_lock<std::mutex> lock{*done_mutex};
    done_cv->wait(lock, [&] { return remaining->load(std::memory_order_acquire) == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace spotbid::core
