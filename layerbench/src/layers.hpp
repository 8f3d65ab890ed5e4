#pragma once

// The traced run's per-layer table. The program already spans its layers
// with csr::observe (schedule, retiming, vm, native, driver, serve,
// journal); the traced run turns the global Tracer on around the real
// run_sweep and SweepService calls and aggregates what it records. Layers
// the program does not span (unfolding, codegen, the loopir optimizer and
// C emission) are timed by restating prepare_cell's calls from the
// benchmark's own files, under spans of category "layerbench".

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "observe/trace.hpp"

namespace layerbench {

using csr::observe::TraceEvent;

/// Runs `fn` with the global tracer on and returns the spans it recorded.
template <typename Fn>
std::vector<TraceEvent> traced(Fn&& fn) {
  auto& tracer = csr::observe::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  fn();
  tracer.set_enabled(false);
  std::vector<TraceEvent> events = tracer.events();
  tracer.clear();
  return events;
}

[[nodiscard]] double seconds(const TraceEvent& e);
/// A bare (numeric) span attribute as a number; 0 when absent.
[[nodiscard]] double arg_number(const TraceEvent& e, const std::string& key);
[[nodiscard]] bool has_arg(const TraceEvent& e, const std::string& key,
                           const std::string& value);

/// One layer's row of the table.
struct LayerRow {
  std::size_t count = 0;
  double total_s = 0;
  double self_s = 0;
  double p50_s = 0;
  double p99_s = 0;
};

/// Recorded spans with their nesting: a span's parent is the innermost span
/// on the same thread whose interval contains it, the standard reading of
/// Chrome "X" events. Rows are keyed "category/name".
class SpanTable {
 public:
  explicit SpanTable(std::vector<TraceEvent> events);

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  /// Indices of the direct children of event `i`, in start order.
  [[nodiscard]] const std::vector<std::size_t>& children(std::size_t i) const {
    return children_[i];
  }
  [[nodiscard]] LayerRow row(const std::string& layer) const;
  /// Count, total, self, p50 and p99 per layer, as an aligned text table.
  void write(std::ostream& out) const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::vector<std::size_t>> children_;
  std::map<std::string, LayerRow> rows_;
};

/// What restating one cell's prepare phase produced.
struct Restated {
  bool runnable = false;
  std::int64_t code_size = -1;      ///< before the optimizer
  std::int64_t measured_size = -1;  ///< after it
  std::size_t c_bytes = 0;          ///< emitted C, native cells only
};

/// Restates prepare_cell's unfolding, codegen and optimize_pipeline calls
/// for `cell` (and to_c_source for native cells) under "layerbench" spans
/// named unfolding.unfold, codegen.generate, loopir.optimize and
/// native.emit. The engines it has to run again record their own program
/// spans; callers keep only the "layerbench" ones.
[[nodiscard]] Restated restate_prepare(const csr::driver::SweepCell& cell,
                                       const csr::driver::SweepOptions& options);

}  // namespace layerbench
