#pragma once

/// \file metrics.hpp
/// Low-overhead observability: named counters, gauges, histograms, timers.
///
/// The simulator's only outputs used to be final averages; reproducing the
/// paper's evaluation (Figures 3-7) and building adaptive strategies on top
/// both need the intermediate quantities — interruption counts, queue
/// length L(t), clearing price pi*(t), billed revenue, replica throughput —
/// observable while a run executes. This module is the one place those
/// quantities are collected.
///
/// Determinism contract (the same one the parallel engine makes): registry
/// *contents* are a pure function of the simulated work, never of the
/// thread count or scheduling order. That holds because every recorded
/// value is an integer (counters, histogram bucket counts) or a fixed-point
/// integer (sums, in 1e-9 "ticks"), and integer addition commutes exactly —
/// unlike floating-point accumulation, the merge order cannot change the
/// result. Two kinds of metric are explicitly *outside* the contract and
/// are dropped by Snapshot::deterministic():
///   - timers (kKindTimer): wall time varies run to run by nature;
///   - gauges: "last value written" depends on scheduling when several
///     threads write the same gauge;
///   - anything under the "parallel." prefix: scheduler telemetry (chunk
///     counts and latencies) legitimately varies with the thread count;
///   - any name containing a ".sched." segment (e.g. "serve.sched.*"):
///     queue depths, micro-batch shapes, and admission decisions depend on
///     worker scheduling by nature.
///
/// Cost model: every recording site first checks enabled() (one relaxed
/// atomic load). Disabled, that is the entire cost. Enabled, low-rate sites
/// (per request, per replica, per parse) do one relaxed atomic add; hot
/// per-slot sites go through CounterBatch/HistogramBatch, which accumulate
/// into plain thread-local (per-owner) integers and flush once when the
/// owner dies — the "per-thread shard with commutative merge" pattern.
/// The SPOTBID_METRICS environment variable ("off"/"0"/"false" disables;
/// default on) sets the initial state; set_enabled() overrides at runtime.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "spotbid/core/types.hpp"

namespace spotbid::metrics {

namespace detail {
/// Initial toggle state from the SPOTBID_METRICS environment variable.
[[nodiscard]] bool env_enabled();

/// Process-wide on/off flag backing enabled()/set_enabled().
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_enabled()};
  return flag;
}
}  // namespace detail

/// True when metric recording is on. One relaxed atomic load; every
/// recording site checks this first, so a disabled registry costs a branch.
[[nodiscard]] inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

/// Override the SPOTBID_METRICS environment toggle at runtime (used by
/// tests). Batches sample the flag when constructed.
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// What a metric measures; determines its snapshot/export shape.
enum class Kind : std::uint8_t {
  kCounter,    ///< monotone event count (integer)
  kSum,        ///< accumulated quantity (fixed-point, e.g. revenue USD)
  kGauge,      ///< last observed value (outside the determinism contract)
  kHistogram,  ///< fixed-bucket distribution of observed values
  kTimer,      ///< histogram of wall-time seconds (non-deterministic)
};

/// Metric name for a Kind ("counter", "sum", ...).
[[nodiscard]] std::string_view kind_name(Kind kind);

/// Fixed-point resolution shared by Sum and histogram sums: one tick is
/// 1e-9 of the metric's unit (nano-dollars, nanoseconds, ...). Integer
/// ticks make parallel accumulation exactly commutative.
inline constexpr double kTickResolution = 1e-9;

/// Ticks per unit. Exactly representable (2^9 * 5^9 * 2^0), so the
/// multiply in to_ticks is exact in the integer range we care about —
/// unlike dividing by kTickResolution, whose reciprocal is not a double.
inline constexpr double kTicksPerUnit = 1e9;

/// Round a quantity to fixed-point ticks (half away from zero; non-finite
/// values are the caller's responsibility to filter). Inline arithmetic
/// instead of std::llround: this sits on the histogram commit path and the
/// libm call costs more than the whole surrounding bucket search.
[[nodiscard]] inline std::int64_t to_ticks(double value) {
  const double scaled = value * kTicksPerUnit;
  return static_cast<std::int64_t>(scaled + (scaled >= 0.0 ? 0.5 : -0.5));
}

/// A monotone event counter. Thread-safe; relaxed atomic increments, which
/// commute exactly, so totals are thread-count invariant.
class Counter {
 public:
  void add(std::uint64_t n) {
    // Skip n == 0: lifecycle sites add tallies that are frequently zero
    // (interruptions, pending slots), and an uncontended atomic RMW is
    // still ~10x a predicted branch.
    if (n != 0 && enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  friend class CounterBatch;
  Counter() = default;
  void reset() { value_.store(0, std::memory_order_relaxed); }

  alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// An accumulated quantity (e.g. billed revenue in USD). Stored as
/// fixed-point ticks so concurrent adds commute exactly; non-finite
/// amounts are dropped rather than poisoning the total.
class Sum {
 public:
  void add(double amount) {
    if (enabled() && std::isfinite(amount))
      ticks_.fetch_add(to_ticks(amount), std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return static_cast<double>(ticks()) * kTickResolution;
  }
  [[nodiscard]] std::int64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  friend class SumBatch;
  Sum() = default;
  void reset() { ticks_.store(0, std::memory_order_relaxed); }

  alignas(64) std::atomic<std::int64_t> ticks_{0};
};

/// Last observed value. Useful for "current" readings (queue demand at the
/// end of a run); explicitly outside the determinism contract because
/// last-writer-wins depends on scheduling.
class Gauge {
 public:
  void set(double value) {
    if (enabled()) value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  Gauge() = default;
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

  alignas(64) std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i covers the half-open interval
/// [upper_bounds[i-1], upper_bounds[i]) — a value exactly on a bound lands
/// in the bucket *above* it — and a final overflow bucket covers
/// [upper_bounds.back(), +inf). Counts are integers and the running sum is
/// fixed-point, so concurrent observations merge commutatively.
class Histogram {
 public:
  /// Index of the bucket a value lands in (NaN is the caller's problem;
  /// observe() drops NaN before calling this). Linear scan with early
  /// exit: bound arrays are small (~10 entries) and observations cluster
  /// in the low buckets, so this beats a binary search on the hot path.
  [[nodiscard]] std::size_t bucket_index(double value) const {
    std::size_t i = 0;
    while (i < bounds_.size() && value >= bounds_[i]) ++i;
    return i;
  }

  void observe(double value) {
    if (!enabled() || std::isnan(value)) return;
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_ticks_.fetch_add(to_ticks(value), std::memory_order_relaxed);
  }

  /// Upper bounds, strictly increasing; the overflow bucket is implicit.
  [[nodiscard]] std::span<const double> upper_bounds() const { return bounds_; }
  /// Number of buckets including the overflow bucket.
  [[nodiscard]] std::size_t bucket_count() const { return bounds_.size() + 1; }
  [[nodiscard]] std::uint64_t bucket(std::size_t index) const;
  /// Total observations (sum over buckets).
  [[nodiscard]] std::uint64_t count() const;
  /// Sum of observed values (fixed-point, hence order-independent).
  [[nodiscard]] double sum() const {
    return static_cast<double>(sum_ticks_.load(std::memory_order_relaxed)) *
           kTickResolution;
  }

 private:
  friend class Registry;
  friend class HistogramBatch;
  explicit Histogram(std::vector<double> upper_bounds);
  void reset();

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  alignas(64) std::atomic<std::int64_t> sum_ticks_{0};
};

/// Unsynchronized local shard of a Counter for per-slot hot paths: the
/// owner increments a plain integer and the destructor (or flush()) adds
/// the total into the shared counter once. Integer merge commutes, so
/// batching preserves the determinism contract. Whether the batch records
/// at all is sampled from enabled() at construction.
class CounterBatch {
 public:
  explicit CounterBatch(Counter& target) : target_(&target), armed_(enabled()) {}
  CounterBatch(CounterBatch&& other) noexcept;
  CounterBatch& operator=(CounterBatch&& other) noexcept;
  CounterBatch(const CounterBatch&) = delete;
  CounterBatch& operator=(const CounterBatch&) = delete;
  ~CounterBatch() { flush(); }

  void add(std::uint64_t n = 1) {
    if (armed_) pending_ += n;
  }
  /// Merge pending increments into the shared counter and clear them.
  void flush();

 private:
  Counter* target_;
  std::uint64_t pending_ = 0;
  bool armed_;
};

/// Unsynchronized local shard of a Sum (see CounterBatch). Each add()
/// converts to fixed-point ticks with the same rounding Sum::add uses and
/// accumulates the ticks in a plain integer; flush() merges the raw ticks.
/// Because the conversion happens per add — not on the flushed total — a
/// batched producer yields bit-identical totals to one calling Sum::add
/// per amount, in any order.
class SumBatch {
 public:
  explicit SumBatch(Sum& target) : target_(&target), armed_(enabled()) {}
  SumBatch(SumBatch&& other) noexcept;
  SumBatch& operator=(SumBatch&& other) noexcept;
  SumBatch(const SumBatch&) = delete;
  SumBatch& operator=(const SumBatch&) = delete;
  ~SumBatch() { flush(); }

  void add(double amount) {
    if (armed_ && std::isfinite(amount)) pending_ticks_ += to_ticks(amount);
  }
  /// Merge pending ticks into the shared sum and clear them.
  void flush();

 private:
  Sum* target_;
  std::int64_t pending_ticks_ = 0;
  bool armed_;
};

/// Unsynchronized local shard of a Histogram (see CounterBatch): bucket
/// counts and the fixed-point sum accumulate locally and merge on flush.
class HistogramBatch {
 public:
  explicit HistogramBatch(Histogram& target);
  HistogramBatch(HistogramBatch&& other) noexcept;
  HistogramBatch& operator=(HistogramBatch&& other) noexcept;
  HistogramBatch(const HistogramBatch&) = delete;
  HistogramBatch& operator=(const HistogramBatch&) = delete;
  ~HistogramBatch() { flush(); }

  void observe(double value) {
    if (!armed_) return;
    // Run-length encode: the dominant producers (sticky spot prices)
    // observe long runs of the same value, so the common case is one
    // floating-point compare plus one increment. NaN never compares equal,
    // so NaN observations fall into commit_run(), which drops them.
    if (value == last_value_) {
      ++run_;
      return;
    }
    commit_run();
    last_value_ = value;
    run_ = 1;
  }
  /// Record `count` observations of the same value at once. Lets an owner
  /// that already tracks value runs (the spot market's price spells) skip
  /// per-event calls entirely.
  void observe_run(double value, std::uint64_t count) {
    if (!armed_ || count == 0) return;
    if (value == last_value_) {
      run_ += count;
      return;
    }
    commit_run();
    last_value_ = value;
    run_ = count;
  }
  /// Merge pending observations into the shared histogram and clear them.
  void flush();
  /// Observations recorded (and not NaN-dropped) since the last flush,
  /// including the still-open run. Lets an owner derive "events seen" from
  /// the batch instead of paying for a separate per-event counter.
  [[nodiscard]] std::uint64_t pending_count() const {
    return committed_ + (std::isnan(last_value_) ? 0 : run_);
  }

 private:
  /// Fold the open run into the local bucket counts (cold path: runs on
  /// value changes, moves, and flushes only).
  void commit_run();

  Histogram* target_;
  std::vector<std::uint64_t> counts_;
  std::int64_t sum_ticks_ = 0;
  double last_value_ = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t run_ = 0;
  std::uint64_t committed_ = 0;
  bool armed_;
};

/// RAII wall-time measurement into a timer histogram (seconds). When
/// metrics are disabled at construction no clock is read at all.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& timer)
      : timer_(enabled() ? &timer : nullptr) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  /// Nullable form for sampled timing: pass nullptr to record nothing (the
  /// Monte-Carlo engine times 1 replica in 16 — two clock reads per replica
  /// would alone cost ~2% of a fig5 sweep).
  explicit ScopedTimer(Histogram* timer)
      : timer_(enabled() ? timer : nullptr) {
    if (timer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (timer_ != nullptr)
      timer_->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
              .count());
  }

 private:
  Histogram* timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Point-in-time copy of one metric, comparable with ==.
struct MetricSnapshot {
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;  ///< counter value / histogram observation count
  double value = 0.0;       ///< sum/gauge value; histogram sum of observations
  std::vector<double> upper_bounds;    ///< histograms/timers only
  std::vector<std::uint64_t> buckets;  ///< histograms/timers only

  [[nodiscard]] bool operator==(const MetricSnapshot&) const = default;

  /// Mean observed value of a histogram/timer (0 when empty).
  [[nodiscard]] double mean() const {
    return count > 0 ? value / static_cast<double>(count) : 0.0;
  }
};

/// Point-in-time copy of a whole registry, sorted by metric name.
struct Snapshot {
  std::vector<MetricSnapshot> metrics;

  [[nodiscard]] bool operator==(const Snapshot&) const = default;
  [[nodiscard]] const MetricSnapshot* find(std::string_view name) const;
  /// The thread-count-invariant subset: drops timers, gauges, the
  /// "parallel." prefix, and any name containing ".sched." (scheduler
  /// telemetry; see the file comment).
  [[nodiscard]] Snapshot deterministic() const;
};

/// Bucket bounds shared by the spot-price histograms (USD per hour;
/// geometric, spanning 2014 spot floors to on-demand caps).
inline constexpr double kPriceBoundsUsd[] = {0.005, 0.01, 0.02, 0.04, 0.08,
                                             0.16,  0.32, 0.64, 1.28, 2.56};

/// Bucket bounds for queue demand L(t) (outstanding bids).
inline constexpr double kDemandBounds[] = {0.25, 0.5, 1.0,  2.0,  4.0,
                                           8.0,  16.0, 32.0, 64.0, 128.0};

/// Bucket bounds for wall-time timers (seconds; one decade per bucket).
inline constexpr double kDurationBoundsSeconds[] = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                                    1e-1, 1.0,  10.0, 100.0};

/// Named-metric registry. Registration (the first counter()/histogram()/...
/// call for a name) takes a mutex; the returned references are stable for
/// the registry's lifetime and recording through them is lock-free.
/// Instrumented modules cache the references in a function-local static, so
/// the lookup cost is paid once per process.
class Registry {
 public:
  /// Out of line: entries are unique_ptrs to a type private to the .cpp,
  /// and both special members would otherwise instantiate its deleter here.
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get or create a metric. Throws InvalidArgument when the name is empty,
  /// already registered with a different kind, or (for histograms)
  /// re-requested with different bounds. Bounds must be finite and strictly
  /// increasing, with at least one entry.
  Counter& counter(std::string_view name);
  Sum& sum(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::span<const double> upper_bounds);
  /// A Kind::kTimer histogram over kDurationBoundsSeconds.
  Histogram& timer(std::string_view name);

  /// Number of registered metrics.
  [[nodiscard]] std::size_t size() const;

  /// Zero every value. Registered names (and the references handed out)
  /// stay valid — reset separates runs, it does not unregister.
  void reset();

  [[nodiscard]] Snapshot snapshot() const;

  /// The process-wide registry every instrumented module records into.
  [[nodiscard]] static Registry& global();

 private:
  struct Entry;
  Entry& get_or_create(std::string_view name, Kind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, std::size_t> index_;
};

/// Write a Snapshot as a JSON object, one metric per line:
/// {"name": {"kind": ..., ...}, ...}.
void write_json(std::ostream& os, const Snapshot& snapshot);

/// Write a Snapshot as flat CSV: metric,kind,field,value with one row per
/// scalar field and per histogram bucket.
void write_csv(std::ostream& os, const Snapshot& snapshot);

/// Write a human-readable aligned summary table.
void write_summary(std::ostream& os, const Snapshot& snapshot);

/// Samples the scalar metrics (counters, sums, gauges) of a registry at
/// caller-chosen times and writes the result as a long-format CSV time
/// series (time,metric,value) — e.g. one sample per simulated slot gives
/// the L(t) / revenue trajectories the paper's Figures 3-7 are built on.
class SeriesRecorder {
 public:
  explicit SeriesRecorder(const Registry& registry = Registry::global())
      : registry_(&registry) {}

  /// Record the current scalar values under timestamp `time` (simulated
  /// hours, slot index, ... — the caller's axis).
  void sample(double time);

  [[nodiscard]] std::size_t samples() const { return samples_; }

  /// Header "time,metric,value" plus one row per sampled scalar.
  void write_csv(std::ostream& os) const;

 private:
  struct Row {
    double time;
    std::string name;
    double value;
  };
  const Registry* registry_;
  std::vector<Row> rows_;
  std::size_t samples_ = 0;
};

}  // namespace spotbid::metrics
