#include "spotbid/serve/service.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "spotbid/core/metrics.hpp"
#include "spotbid/serve/engine.hpp"

namespace spotbid::serve {

namespace {

/// Bucket bounds for micro-batch sizes (requests per worker tick).
constexpr double kBatchBounds[] = {1.5, 2.5, 4.5, 8.5, 16.5, 32.5, 64.5, 128.5};

/// All under serve.sched.: queue depth, batch shapes, and admission counts
/// depend on thread scheduling, so they are excluded from the registry's
/// deterministic() subset (unlike the engine's serve.requests/responses
/// tallies, which depend only on the executed request set).
struct SchedMetrics {
  metrics::Counter& accepted;
  metrics::Counter& rejected;
  metrics::Counter& overload_entries;
  metrics::Counter& ticks;
  metrics::Gauge& queue_depth;
  metrics::Histogram& batch_size;
  metrics::Histogram& exec_timer;
};

SchedMetrics& sm() {
  static SchedMetrics m{
      metrics::Registry::global().counter("serve.sched.accepted"),
      metrics::Registry::global().counter("serve.sched.rejected"),
      metrics::Registry::global().counter("serve.sched.overload_entries"),
      metrics::Registry::global().counter("serve.sched.ticks"),
      metrics::Registry::global().gauge("serve.sched.queue_depth"),
      metrics::Registry::global().histogram("serve.sched.batch_size", kBatchBounds),
      metrics::Registry::global().timer("serve.sched.exec_seconds"),
  };
  return m;
}

Response unadmitted_response(const Request& request, Status status) {
  Response r;
  r.kind = request.kind;
  r.status = status;
  return r;
}

}  // namespace

BidService::BidService(const SnapshotStore& store, ServiceConfig config)
    : store_(&store), config_(config) {
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.high_watermark == 0 || config_.high_watermark > config_.queue_capacity)
    config_.high_watermark = config_.queue_capacity;
  if (config_.low_watermark == 0)
    config_.low_watermark = std::max<std::size_t>(config_.queue_capacity / 2, 1);
  config_.low_watermark = std::min(config_.low_watermark, config_.high_watermark);
  if (config_.max_batch == 0) config_.max_batch = 1;

  if (config_.start_workers) {
    workers_ = config_.workers > 0 ? config_.workers : core::default_thread_count();
    pool_ = std::make_unique<core::ThreadPool>(workers_);
    for (int i = 0; i < workers_; ++i) pool_->submit([this] { worker_loop(); });
  }
}

BidService::~BidService() { stop(); }

std::future<Response> BidService::submit(Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  submit(std::move(request),
         [promise](Response response) { promise->set_value(std::move(response)); });
  return future;
}

void BidService::submit(Request request, Completion done) {
  Status rejected_status = Status::kOk;
  bool admitted = false;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (stopping_) {
      rejected_status = Status::kShutdown;
    } else if (overloaded_) {
      ++rejected_;
      sm().rejected.increment();
      rejected_status = Status::kOverloaded;
    } else {
      queue_.push_back(Item{std::move(request), std::move(done)});
      ++accepted_;
      sm().accepted.increment();
      if (queue_.size() >= config_.high_watermark) {
        overloaded_ = true;
        sm().overload_entries.increment();
      }
      admitted = true;
    }
  }
  if (admitted) {
    ready_.notify_one();
    return;
  }
  // The rejection completion runs outside the lock: it may re-enter the
  // service or touch its own synchronization (the epoll shard's inbox).
  done(unadmitted_response(request, rejected_status));
}

Response BidService::ask(Request request) { return submit(std::move(request)).get(); }

void BidService::stop() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stopping_ = true;
  }
  ready_.notify_all();
  // The pool destructor joins once every worker loop returns; loops only
  // return when stopping_ is set AND the queue is empty, so every accepted
  // request has been answered by the time the join completes. Under manual
  // dispatch (start_workers = false) there are no workers, so whatever is
  // still queued is executed inline here — every accepted request completes
  // with a real engine response.
  pool_.reset();
  while (drain_tick()) {
  }
}

std::size_t BidService::queue_depth() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return queue_.size();
}

bool BidService::overloaded() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return overloaded_;
}

std::uint64_t BidService::accepted() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return accepted_;
}

std::uint64_t BidService::rejected() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return rejected_;
}

bool BidService::poll_once() { return drain_tick(); }

void BidService::worker_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock{mutex_};
      ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
    }
    drain_tick();
  }
}

bool BidService::drain_tick() {
  std::vector<Item> batch;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (queue_.empty()) return false;

    const std::size_t take = std::min(config_.max_batch, queue_.size());
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    if (overloaded_ && queue_.size() <= config_.low_watermark) overloaded_ = false;
    sm().queue_depth.set(static_cast<double>(queue_.size()));
  }
  // More work may remain: hand it to another parked worker before executing.
  ready_.notify_one();

  sm().ticks.increment();
  sm().batch_size.observe(static_cast<double>(batch.size()));
  const metrics::ScopedTimer timer{sm().exec_timer};

  // Group the tick's requests by key (order-preserving within a key via
  // stable_sort), resolve each key against the store once, and answer each
  // group through execute_batch with one tally flush.
  std::vector<std::size_t> order(batch.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return batch[a].request.key < batch[b].request.key;
  });

  std::vector<const Request*> group;
  std::vector<Response> responses;
  std::size_t start = 0;
  while (start < order.size()) {
    std::size_t end = start + 1;
    while (end < order.size() &&
           batch[order[end]].request.key == batch[order[start]].request.key)
      ++end;

    const std::shared_ptr<const ModelSnapshot> snapshot =
        store_->find(batch[order[start]].request.key);
    group.clear();
    for (std::size_t i = start; i < end; ++i) group.push_back(&batch[order[i]].request);
    responses.assign(group.size(), Response{});
    execute_batch(snapshot.get(), group, responses);
    for (std::size_t i = start; i < end; ++i)
      batch[order[i]].done(std::move(responses[i - start]));

    start = end;
  }
  return true;
}

}  // namespace spotbid::serve
