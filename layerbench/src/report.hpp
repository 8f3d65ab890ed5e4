#pragma once

// The result one run prints as its last stdout line, plus the statistics
// helpers every workload shares.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace layerbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> mismatches;  ///< why `correct` is false

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void mismatch(std::string why) {
    correct = false;
    mismatches.push_back(std::move(why));
  }
  /// The contract's single JSON line.
  [[nodiscard]] std::string json() const;
};

/// Command-line settings of one run.
struct RunArgs {
  Workload workload = Workload::kGridVm;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;     ///< private scratch directory inside the checkout
  std::string serve_path;  ///< csr_serve binary (serve-mixed only)
  std::string self_path;   ///< this binary, re-executed for set-up probes
};

/// Nearest-rank percentile of unsorted samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// The tail: the highest of p99/p95/p90/p75 that leaves at least ten
/// samples beyond it, and the mean of those samples: {percentile, mean}.
/// A mean, not the percentile itself: a sweep's latencies come from a fixed
/// cell set with gaps between cells, and grid-vm's nearest-rank p95 sat on
/// one (25.5 ms at rank 745, 30.5 ms two ranks on), flipping across it from
/// run to run.
[[nodiscard]] std::pair<int, double> tail_mean(std::vector<double> samples);

[[nodiscard]] double median(std::vector<double> samples);

/// Peak resident set of this process, in MB.
[[nodiscard]] double self_peak_rss_mb();

/// Seconds on the steady clock (CLOCK_MONOTONIC), comparable across
/// processes of one boot.
[[nodiscard]] double monotonic_seconds();

/// Runs one workload; the Report carries the metrics the mode asks for.
[[nodiscard]] Report run_sweep_workload(const RunArgs& args);
[[nodiscard]] Report run_serve_workload(const RunArgs& args);

/// Set-up of a sweep workload, shared by the probe and the measured run.
void sweep_setup(const RunArgs& args);

/// The set-up probe (--setup-probe): sweep_setup, the seeded cell list and
/// one run_sweep call on a fixed small VM cell. True when that cell
/// verified.
[[nodiscard]] bool sweep_probe(const RunArgs& args);

}  // namespace layerbench
