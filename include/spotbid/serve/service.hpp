#pragma once

/// \file service.hpp
/// BidService: concurrent bid-advisory front end over a SnapshotStore.
///
/// Execution model (docs/SERVE.md has the full walkthrough):
///
///  - submit(request, done) pushes a request onto a bounded MPMC queue with
///    a completion that receives its response. It is the one admission
///    path: the future-returning submit() and ask() wrap it;
///  - backpressure: when the queue reaches the high watermark the service
///    enters an overloaded state and submit() rejects immediately with
///    Status::kOverloaded (the completion runs before submit returns — the
///    caller never blocks on an overloaded service); the state clears only
///    once workers drain the queue to the low watermark (hysteresis, so
///    admission does not flap around the threshold);
///  - workers run on a dedicated core::ThreadPool. Each worker drains up
///    to max_batch queued requests per wake-up ("one tick"), groups them
///    by key, resolves each key against the store once, and executes each
///    group through engine::execute_batch — a same-key burst pays one
///    snapshot lookup and one metrics flush instead of one per request;
///  - stop() (and the destructor) drains: every accepted request is
///    answered exactly once before the workers join; requests submitted
///    after stop() get Status::kShutdown. No accepted request is ever
///    lost or answered twice — BidService.BackpressureHysteresisIsExact
///    (manual dispatch) and BidService.ThreadedSoakConservesEveryRequest
///    (live workers) enforce this under overload.
///
/// Determinism contract: a response's payload is a pure function of the
/// request and the snapshot that answered it — never of the worker count,
/// batch boundaries, or queue order. Metrics under `serve.` follow the
/// registry's determinism contract except the `serve.sched.` prefix
/// (queue depths, batch sizes, overload rejections), which is
/// scheduling-dependent by nature and excluded from
/// metrics::Snapshot::deterministic().

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>

#include "spotbid/core/parallel.hpp"
#include "spotbid/serve/request.hpp"
#include "spotbid/serve/snapshot_store.hpp"

namespace spotbid::serve {

/// Tuning knobs of a BidService.
struct ServiceConfig {
  /// Worker threads (0 = core::default_thread_count()).
  int workers = 0;
  /// Hard queue bound; submissions beyond it are always rejected.
  std::size_t queue_capacity = 1024;
  /// Depth at which the service turns overloaded (0 = queue_capacity).
  std::size_t high_watermark = 0;
  /// Depth the queue must drain to before admission resumes
  /// (0 = queue_capacity / 2, at least 1).
  std::size_t low_watermark = 0;
  /// Most requests a worker dequeues per wake-up (the micro-batch bound).
  std::size_t max_batch = 64;
  /// When false no worker threads are started and the owner drives
  /// execution through poll_once() — this makes queue/backpressure state
  /// fully deterministic (BidService.BackpressureHysteresisIsExact).
  bool start_workers = true;
};

class BidService {
 public:
  /// Starts the worker pool. The store must outlive the service.
  explicit BidService(const SnapshotStore& store, ServiceConfig config = {});

  /// stop()s if still running.
  ~BidService();

  BidService(const BidService&) = delete;
  BidService& operator=(const BidService&) = delete;

  /// Invoked exactly once with a request's response. Admitted requests
  /// complete on whichever thread executes them (a worker, or the
  /// poll_once()/stop() caller); rejected ones (kOverloaded / kShutdown)
  /// complete synchronously inside submit.
  using Completion = std::function<void(Response)>;

  /// Enqueue a request; `done` receives its response. This is the only
  /// code that admits a request. No service lock is held while `done`
  /// runs, so the completion may re-enter the service — the epoll event
  /// loop's completion channel relies on that.
  void submit(Request request, Completion done);

  /// Future flavour of submit: a wrapper whose completion resolves the
  /// returned future, which is therefore always valid — it resolves with
  /// the engine's response once a worker processes the request, or
  /// immediately with kOverloaded / kShutdown when the request was not
  /// admitted.
  [[nodiscard]] std::future<Response> submit(Request request);

  /// Synchronous convenience: submit and wait.
  [[nodiscard]] Response ask(Request request);

  /// Run one worker tick (up to max_batch requests) inline on the calling
  /// thread; returns whether any request was executed. The manual-dispatch
  /// counterpart of a worker wake-up (usable alongside workers too).
  bool poll_once();

  /// Drain every accepted request, answer it, and join the workers. Any
  /// requests still queued after the join (possible only under
  /// start_workers = false) are executed inline, so every accepted request
  /// completes with a real response. Idempotent; implied by the destructor.
  void stop();

  [[nodiscard]] int workers() const { return workers_; }
  /// Requests currently queued (racy by nature; for monitoring).
  [[nodiscard]] std::size_t queue_depth() const;
  /// True while admission is closed (between high- and low-watermark).
  [[nodiscard]] bool overloaded() const;
  /// Requests admitted to the queue so far.
  [[nodiscard]] std::uint64_t accepted() const;
  /// Requests rejected with kOverloaded so far.
  [[nodiscard]] std::uint64_t rejected() const;

 private:
  struct Item {
    Request request;
    Completion done;
  };

  void worker_loop();
  /// Steal one batch and execute it; false when the queue was empty.
  bool drain_tick();

  const SnapshotStore* store_;
  ServiceConfig config_;
  int workers_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Item> queue_;
  bool overloaded_ = false;
  bool stopping_ = false;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;

  /// Dedicated pool (not ThreadPool::global(): worker loops park on the
  /// queue's condition variable, which must never starve parallel_for).
  std::unique_ptr<core::ThreadPool> pool_;
};

}  // namespace spotbid::serve
