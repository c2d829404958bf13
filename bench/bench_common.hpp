#pragma once

/// \file bench_common.hpp
/// Shared helpers for the benches: ASCII table rendering, number
/// formatting and the metrics report, plus the paper reproductions that
/// spotbid_paper runs by name.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "spotbid/core/metrics.hpp"

namespace spotbid::bench {

/// Fixed-width ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_)
      for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i)
        widths[i] = std::max(widths[i], row[i].size());

    const auto rule = [&] {
      os << '+';
      for (const auto w : widths) os << std::string(w + 2, '-') << '+';
      os << '\n';
    };
    const auto line = [&](const std::vector<std::string>& cells) {
      os << '|';
      for (std::size_t i = 0; i < widths.size(); ++i) {
        const std::string& cell = i < cells.size() ? cells[i] : std::string{};
        os << ' ' << std::left << std::setw(static_cast<int>(widths[i])) << cell << " |";
      }
      os << '\n';
    };
    rule();
    line(headers_);
    rule();
    for (const auto& row : rows_) line(row);
    rule();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style number formatting into std::string.
inline std::string fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, format, value);
  return buffer;
}

inline std::string usd(double value) { return fmt("$%.4f", value); }
inline std::string hours(double value) { return fmt("%.3f h", value); }
inline std::string percent(double fraction) { return fmt("%+.1f%%", 100.0 * fraction); }

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Print the run's metrics (everything the driver's simulations recorded in
/// the global registry) as a human-readable table, and optionally export
/// the snapshot to the files named by SPOTBID_METRICS_JSON /
/// SPOTBID_METRICS_CSV. Call once at the end of a driver, after the
/// reproduction tables.
inline void metrics_report(const std::string& title) {
  const metrics::Snapshot snapshot = metrics::Registry::global().snapshot();
  if (snapshot.metrics.empty()) return;
  banner(title + ": run metrics");
  metrics::write_summary(std::cout, snapshot);
  if (const char* path = std::getenv("SPOTBID_METRICS_JSON"); path != nullptr && *path != '\0') {
    std::ofstream os{path};
    metrics::write_json(os, snapshot);
    std::cout << "metrics json -> " << path << "\n";
  }
  if (const char* path = std::getenv("SPOTBID_METRICS_CSV"); path != nullptr && *path != '\0') {
    std::ofstream os{path};
    metrics::write_csv(os, snapshot);
    std::cout << "metrics csv -> " << path << "\n";
  }
}

/// The paper reproductions, one per bench/<name>.cpp. Each prints its
/// result block (the reproduced tables and figures) to stdout.
void fig3_pdf_fit();
void fig4_running_time();
void fig5_onetime_cost();
void fig6_persistent_vs_onetime();
void table3_optimal_bids();
void table4_mapreduce_bids();
void fig7_mapreduce();
void provider_model();
void ablation_sensitivity();
void ext_section8();
void ext_portfolio();

}  // namespace spotbid::bench
