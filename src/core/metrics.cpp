#include "spotbid/core/metrics.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <utility>

#include "spotbid/core/contracts.hpp"

namespace spotbid::metrics {

namespace detail {

bool env_enabled() {
  // Read once at startup, before any worker thread exists, and nothing in
  // the process calls setenv.
  const char* raw = std::getenv("SPOTBID_METRICS");  // NOLINT(concurrency-mt-unsafe)
  if (raw == nullptr || *raw == '\0') return true;
  const std::string_view value{raw};
  return !(value == "off" || value == "0" || value == "false" || value == "no");
}

}  // namespace detail

std::string_view kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kSum: return "sum";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
    case Kind::kTimer: return "timer";
  }
  return "unknown";
}

// --- Histogram ---------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  SPOTBID_EXPECT(!bounds_.empty(), "Histogram: at least one bucket bound required");
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    SPOTBID_REQUIRE_FINITE(bounds_[i], "Histogram: bucket bound");
    if (i > 0)
      SPOTBID_EXPECT(bounds_[i - 1] < bounds_[i],
                     "Histogram: bucket bounds must be strictly increasing");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bucket_count());
}

std::uint64_t Histogram::bucket(std::size_t index) const {
  SPOTBID_EXPECT(index < bucket_count(), "Histogram::bucket: index out of range");
  return buckets_[index].load(std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < bucket_count(); ++i)
    total += buckets_[i].load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() {
  for (std::size_t i = 0; i < bucket_count(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  sum_ticks_.store(0, std::memory_order_relaxed);
}

// --- Batches ------------------------------------------------------------

CounterBatch::CounterBatch(CounterBatch&& other) noexcept
    : target_(other.target_), pending_(other.pending_), armed_(other.armed_) {
  other.pending_ = 0;
  other.armed_ = false;
}

CounterBatch& CounterBatch::operator=(CounterBatch&& other) noexcept {
  if (this != &other) {
    flush();
    target_ = other.target_;
    pending_ = other.pending_;
    armed_ = other.armed_;
    other.pending_ = 0;
    other.armed_ = false;
  }
  return *this;
}

void CounterBatch::flush() {
  if (pending_ == 0) return;
  // Bypass the target's enabled() check: the batch already decided to
  // record when it was armed, and dropping a flush would lose counts.
  target_->value_.fetch_add(pending_, std::memory_order_relaxed);
  pending_ = 0;
}

SumBatch::SumBatch(SumBatch&& other) noexcept
    : target_(other.target_), pending_ticks_(other.pending_ticks_), armed_(other.armed_) {
  other.pending_ticks_ = 0;
  other.armed_ = false;
}

SumBatch& SumBatch::operator=(SumBatch&& other) noexcept {
  if (this != &other) {
    flush();
    target_ = other.target_;
    pending_ticks_ = other.pending_ticks_;
    armed_ = other.armed_;
    other.pending_ticks_ = 0;
    other.armed_ = false;
  }
  return *this;
}

void SumBatch::flush() {
  if (pending_ticks_ == 0) return;
  // Like CounterBatch::flush: the armed batch already committed to record.
  target_->ticks_.fetch_add(pending_ticks_, std::memory_order_relaxed);
  pending_ticks_ = 0;
}

HistogramBatch::HistogramBatch(Histogram& target)
    // counts_ stays empty until the first commit_run(): most owners are
    // short-lived (one market per Monte-Carlo replica) and the lazy vector
    // keeps the armed constructor allocation-free.
    : target_(&target), armed_(enabled()) {}

HistogramBatch::HistogramBatch(HistogramBatch&& other) noexcept
    : target_(other.target_),
      counts_(std::move(other.counts_)),
      sum_ticks_(other.sum_ticks_),
      last_value_(other.last_value_),
      run_(other.run_),
      committed_(other.committed_),
      armed_(other.armed_) {
  other.counts_.clear();
  other.sum_ticks_ = 0;
  other.last_value_ = std::numeric_limits<double>::quiet_NaN();
  other.run_ = 0;
  other.committed_ = 0;
  other.armed_ = false;
}

HistogramBatch& HistogramBatch::operator=(HistogramBatch&& other) noexcept {
  if (this != &other) {
    flush();
    target_ = other.target_;
    counts_ = std::move(other.counts_);
    sum_ticks_ = other.sum_ticks_;
    last_value_ = other.last_value_;
    run_ = other.run_;
    committed_ = other.committed_;
    armed_ = other.armed_;
    other.counts_.clear();
    other.sum_ticks_ = 0;
    other.last_value_ = std::numeric_limits<double>::quiet_NaN();
    other.run_ = 0;
    other.committed_ = 0;
    other.armed_ = false;
  }
  return *this;
}

void HistogramBatch::commit_run() {
  if (run_ == 0) return;
  if (!std::isnan(last_value_)) {
    if (counts_.empty()) counts_.resize(target_->bucket_count(), 0);
    counts_[target_->bucket_index(last_value_)] += run_;
    sum_ticks_ += to_ticks(last_value_) * static_cast<std::int64_t>(run_);
    committed_ += run_;
  }
  run_ = 0;
}

void HistogramBatch::flush() {
  commit_run();
  bool any = false;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    target_->buckets_[i].fetch_add(counts_[i], std::memory_order_relaxed);
    counts_[i] = 0;
    any = true;
  }
  if (any || sum_ticks_ != 0) {
    target_->sum_ticks_.fetch_add(sum_ticks_, std::memory_order_relaxed);
    sum_ticks_ = 0;
  }
  committed_ = 0;
}

// --- Registry -----------------------------------------------------------

struct Registry::Entry {
  std::string name;
  Kind kind = Kind::kCounter;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Sum> sum;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry::Entry& Registry::get_or_create(std::string_view name, Kind kind) {
  SPOTBID_EXPECT(!name.empty(), "Registry: metric name must not be empty");
  std::lock_guard<std::mutex> lock{mutex_};
  const auto it = index_.find(std::string{name});
  if (it != index_.end()) {
    Entry& entry = *entries_[it->second];
    if (entry.kind != kind)
      throw InvalidArgument{"Registry: metric '" + entry.name + "' is a " +
                            std::string{kind_name(entry.kind)} + ", requested as " +
                            std::string{kind_name(kind)}};
    return entry;
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string{name};
  entry->kind = kind;
  switch (kind) {
    case Kind::kCounter: entry->counter.reset(new Counter()); break;
    case Kind::kSum: entry->sum.reset(new Sum()); break;
    case Kind::kGauge: entry->gauge.reset(new Gauge()); break;
    case Kind::kHistogram:
    case Kind::kTimer: break;  // histogram attached by the caller
  }
  entries_.push_back(std::move(entry));
  index_.emplace(entries_.back()->name, entries_.size() - 1);
  return *entries_.back();
}

Counter& Registry::counter(std::string_view name) {
  return *get_or_create(name, Kind::kCounter).counter;
}

Sum& Registry::sum(std::string_view name) { return *get_or_create(name, Kind::kSum).sum; }

Gauge& Registry::gauge(std::string_view name) {
  return *get_or_create(name, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name, std::span<const double> upper_bounds) {
  Entry& entry = get_or_create(name, Kind::kHistogram);
  if (entry.histogram == nullptr) {
    entry.histogram.reset(
        new Histogram{std::vector<double>(upper_bounds.begin(), upper_bounds.end())});
    return *entry.histogram;
  }
  const auto existing = entry.histogram->upper_bounds();
  if (!std::equal(existing.begin(), existing.end(), upper_bounds.begin(),
                  upper_bounds.end()))
    throw InvalidArgument{"Registry: histogram '" + entry.name +
                          "' re-requested with different bucket bounds"};
  return *entry.histogram;
}

Histogram& Registry::timer(std::string_view name) {
  Entry& entry = get_or_create(name, Kind::kTimer);
  if (entry.histogram == nullptr)
    entry.histogram.reset(new Histogram{std::vector<double>(
        std::begin(kDurationBoundsSeconds), std::end(kDurationBoundsSeconds))});
  return *entry.histogram;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return entries_.size();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock{mutex_};
  for (auto& entry : entries_) {
    if (entry->counter) entry->counter->reset();
    if (entry->sum) entry->sum->reset();
    if (entry->gauge) entry->gauge->reset();
    if (entry->histogram) entry->histogram->reset();
  }
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    snap.metrics.reserve(entries_.size());
    for (const auto& entry : entries_) {
      MetricSnapshot m;
      m.name = entry->name;
      m.kind = entry->kind;
      switch (entry->kind) {
        case Kind::kCounter: m.count = entry->counter->value(); break;
        case Kind::kSum: m.value = entry->sum->value(); break;
        case Kind::kGauge: m.value = entry->gauge->value(); break;
        case Kind::kHistogram:
        case Kind::kTimer: {
          const Histogram& h = *entry->histogram;
          m.upper_bounds.assign(h.upper_bounds().begin(), h.upper_bounds().end());
          m.buckets.resize(h.bucket_count());
          for (std::size_t i = 0; i < h.bucket_count(); ++i) m.buckets[i] = h.bucket(i);
          m.count = h.count();
          m.value = h.sum();
          break;
        }
      }
      snap.metrics.push_back(std::move(m));
    }
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) { return a.name < b.name; });
  return snap;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

// --- Snapshot -----------------------------------------------------------

const MetricSnapshot* Snapshot::find(std::string_view name) const {
  for (const auto& metric : metrics)
    if (metric.name == name) return &metric;
  return nullptr;
}

Snapshot Snapshot::deterministic() const {
  Snapshot out;
  for (const auto& metric : metrics) {
    if (metric.kind == Kind::kTimer || metric.kind == Kind::kGauge) continue;
    if (metric.name.starts_with("parallel.")) continue;
    // Scheduler-telemetry carve-out: any ".sched." segment (e.g. the serve
    // layer's queue depths, batch shapes, and admission counts) varies with
    // worker count and timing by nature.
    if (metric.name.find(".sched.") != std::string::npos) continue;
    out.metrics.push_back(metric);
  }
  return out;
}

// --- Exporters ----------------------------------------------------------

namespace {

/// Escape a metric name for JSON (names are plain identifiers, but never
/// emit a malformed document on principle).
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      // Control characters have no business in metric names; strip them.
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string format_number(double value) {
  std::ostringstream os;
  os << std::setprecision(17) << value;
  return os.str();
}

}  // namespace

void write_json(std::ostream& os, const Snapshot& snapshot) {
  os << "{";
  bool first = true;
  for (const auto& metric : snapshot.metrics) {
    if (!first) os << ",";
    first = false;
    os << "\n  \"" << json_escape(metric.name) << "\": {\"kind\": \""
       << kind_name(metric.kind) << "\"";
    switch (metric.kind) {
      case Kind::kCounter: os << ", \"count\": " << metric.count; break;
      case Kind::kSum:
      case Kind::kGauge: os << ", \"value\": " << format_number(metric.value); break;
      case Kind::kHistogram:
      case Kind::kTimer: {
        os << ", \"count\": " << metric.count
           << ", \"sum\": " << format_number(metric.value) << ", \"buckets\": [";
        for (std::size_t i = 0; i < metric.buckets.size(); ++i) {
          if (i > 0) os << ", ";
          os << "{\"lt\": ";
          if (i < metric.upper_bounds.size())
            os << format_number(metric.upper_bounds[i]);
          else
            os << "null";
          os << ", \"count\": " << metric.buckets[i] << "}";
        }
        os << "]";
        break;
      }
    }
    os << "}";
  }
  if (!first) os << "\n";
  os << "}";
}

void write_csv(std::ostream& os, const Snapshot& snapshot) {
  os << "metric,kind,field,value\n";
  for (const auto& metric : snapshot.metrics) {
    const auto row = [&](std::string_view field, const std::string& value) {
      os << metric.name << ',' << kind_name(metric.kind) << ',' << field << ',' << value
         << '\n';
    };
    switch (metric.kind) {
      case Kind::kCounter: row("count", std::to_string(metric.count)); break;
      case Kind::kSum:
      case Kind::kGauge: row("value", format_number(metric.value)); break;
      case Kind::kHistogram:
      case Kind::kTimer: {
        row("count", std::to_string(metric.count));
        row("sum", format_number(metric.value));
        for (std::size_t i = 0; i < metric.buckets.size(); ++i) {
          const std::string field =
              i < metric.upper_bounds.size() ? "lt_" + format_number(metric.upper_bounds[i])
                                             : std::string{"lt_inf"};
          row(field, std::to_string(metric.buckets[i]));
        }
        break;
      }
    }
  }
}

void write_summary(std::ostream& os, const Snapshot& snapshot) {
  std::vector<std::array<std::string, 4>> rows;
  rows.push_back({"metric", "kind", "count", "value"});
  for (const auto& metric : snapshot.metrics) {
    std::array<std::string, 4> row{metric.name, std::string{kind_name(metric.kind)}, "-", "-"};
    switch (metric.kind) {
      case Kind::kCounter:
        row[2] = std::to_string(metric.count);
        break;
      case Kind::kSum:
      case Kind::kGauge: {
        std::ostringstream value;
        value << std::setprecision(6) << metric.value;
        row[3] = value.str();
        break;
      }
      case Kind::kHistogram:
      case Kind::kTimer: {
        row[2] = std::to_string(metric.count);
        std::ostringstream value;
        value << "mean " << std::setprecision(4) << metric.mean() << "  [";
        bool first = true;
        for (std::size_t i = 0; i < metric.buckets.size(); ++i) {
          if (metric.buckets[i] == 0) continue;
          if (!first) value << ' ';
          first = false;
          if (i < metric.upper_bounds.size())
            value << '<' << std::setprecision(3) << metric.upper_bounds[i];
          else
            value << "inf";
          value << ':' << metric.buckets[i];
        }
        value << ']';
        row[3] = value.str();
        break;
      }
    }
    rows.push_back(std::move(row));
  }

  std::array<std::size_t, 4> widths{};
  for (const auto& row : rows)
    for (std::size_t i = 0; i < row.size(); ++i) widths[i] = std::max(widths[i], row[i].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r];
    os << "  ";
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i])) << row[i];
      if (i + 1 < row.size()) os << "  ";
    }
    os << '\n';
    if (r == 0) {
      os << "  ";
      for (std::size_t i = 0; i < widths.size(); ++i) {
        os << std::string(widths[i], '-');
        if (i + 1 < widths.size()) os << "  ";
      }
      os << '\n';
    }
  }
}

// --- SeriesRecorder -----------------------------------------------------

void SeriesRecorder::sample(double time) {
  const Snapshot snap = registry_->snapshot();
  for (const auto& metric : snap.metrics) {
    switch (metric.kind) {
      case Kind::kCounter:
        rows_.push_back({time, metric.name, static_cast<double>(metric.count)});
        break;
      case Kind::kSum:
      case Kind::kGauge:
        rows_.push_back({time, metric.name, metric.value});
        break;
      case Kind::kHistogram:
      case Kind::kTimer: break;  // distributions have no single series value
    }
  }
  ++samples_;
}

void SeriesRecorder::write_csv(std::ostream& os) const {
  os << "time,metric,value\n";
  for (const auto& row : rows_)
    os << format_number(row.time) << ',' << row.name << ',' << format_number(row.value)
       << '\n';
}

}  // namespace spotbid::metrics
