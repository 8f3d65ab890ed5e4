#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>

#include "benchmarks/benchmarks.hpp"
#include "codegen/c_emitter.hpp"
#include "codegen/nested.hpp"
#include "codegen/original.hpp"
#include "codegen/retimed.hpp"
#include "codegen/retimed_unfolded.hpp"
#include "codegen/unfolded.hpp"
#include "codegen/unfolded_retimed.hpp"
#include "dfg/algorithms.hpp"
#include "loopir/pipeline.hpp"
#include "mdfg/builders.hpp"
#include "report.hpp"
#include "retiming/exact.hpp"
#include "retiming/md_retiming.hpp"
#include "retiming/opt.hpp"
#include "retiming/retiming.hpp"
#include "schedule/modulo.hpp"
#include "schedule/rotation.hpp"
#include "support/error.hpp"
#include "unfolding/unfold.hpp"

namespace layerbench {

using namespace csr;
using driver::Engine;
using driver::ExecEngine;
using driver::SweepCell;
using driver::Transform;
using observe::Span;

double seconds(const TraceEvent& e) { return static_cast<double>(e.duration_ns) * 1e-9; }

double arg_number(const TraceEvent& e, const std::string& key) {
  for (const auto& a : e.args) {
    if (a.key == key && !a.quoted_string) return std::strtod(a.value.c_str(), nullptr);
  }
  return 0;
}

bool has_arg(const TraceEvent& e, const std::string& key, const std::string& value) {
  for (const auto& a : e.args) {
    if (a.key == key && a.value == value) return true;
  }
  return false;
}

SpanTable::SpanTable(std::vector<TraceEvent> events)
    : events_(std::move(events)), children_(events_.size()) {
  std::vector<std::size_t> order(events_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto end = [&](std::size_t i) { return events_[i].start_ns + events_[i].duration_ns; };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const TraceEvent& x = events_[a];
    const TraceEvent& y = events_[b];
    if (x.thread != y.thread) return x.thread < y.thread;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.duration_ns > y.duration_ns;  // the enclosing span first
  });
  std::vector<std::size_t> open;
  std::vector<double> child_s(events_.size(), 0);
  for (const std::size_t i : order) {
    while (!open.empty() && (events_[open.back()].thread != events_[i].thread ||
                             end(open.back()) < end(i))) {
      open.pop_back();
    }
    if (!open.empty()) {
      children_[open.back()].push_back(i);
      child_s[open.back()] += seconds(events_[i]);
    }
    open.push_back(i);
  }
  std::map<std::string, std::vector<double>> samples;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const std::string key = events_[i].category + "/" + events_[i].name;
    LayerRow& r = rows_[key];
    ++r.count;
    r.total_s += seconds(events_[i]);
    r.self_s += seconds(events_[i]) - child_s[i];
    samples[key].push_back(seconds(events_[i]));
  }
  for (auto& [key, values] : samples) {
    rows_[key].p50_s = percentile(values, 0.50);
    rows_[key].p99_s = percentile(values, 0.99);
  }
}

LayerRow SpanTable::row(const std::string& layer) const {
  const auto it = rows_.find(layer);
  return it == rows_.end() ? LayerRow{} : it->second;
}

void SpanTable::write(std::ostream& out) const {
  char line[256];
  std::snprintf(line, sizeof line, "%-38s %8s %12s %12s %11s %11s\n", "layer", "count",
                "total_ms", "self_ms", "p50_ms", "p99_ms");
  out << line;
  for (const auto& [name, r] : rows_) {
    std::snprintf(line, sizeof line, "%-38s %8zu %12.3f %12.3f %11.4f %11.4f\n",
                  name.c_str(), r.count, r.total_s * 1e3, r.self_s * 1e3, r.p50_s * 1e3,
                  r.p99_s * 1e3);
    out << line;
  }
}

namespace {

constexpr const char* kCategory = "layerbench";

/// The engine's normalized retiming, as run_engine computes it; nullopt
/// when the engine finds no schedule.
std::optional<Retiming> schedule(Engine engine, const DataFlowGraph& g,
                                 const ResourceModel& machine) {
  switch (engine) {
    case Engine::kOptRetiming:
      return minimum_period_retiming(g).retiming.normalized();
    case Engine::kRotation:
      return rotation_schedule(g, machine).retiming.normalized();
    case Engine::kModulo: {
      const auto ms = modulo_schedule(g, machine);
      if (!ms) return std::nullopt;
      return retiming_from_modulo(g, *ms).normalized();
    }
    case Engine::kOptExact:
      return exact_optimal_retiming(g).retiming.normalized();
  }
  return std::nullopt;
}

DataFlowGraph table_graph(const std::string& name) {
  for (const auto& info : benchmarks::all_graphs()) {
    if (info.name == name) return info.factory();
  }
  throw InvalidArgument("unknown benchmark '" + name + "'");
}

/// prepare_nested_cell's codegen; nullopt when the cell is infeasible.
std::optional<LoopProgram> generate_nested(const SweepCell& cell) {
  const MdDataFlowGraph g = mdfg::find_md_benchmark(cell.benchmark)->factory();
  if (cell.transform == Transform::kOriginal) {
    const Span span(kCategory, "codegen.generate");
    return nested_original_program(g, cell.rows, cell.cols);
  }
  if (cell.engine != Engine::kOptRetiming && cell.engine != Engine::kOptExact) {
    return std::nullopt;
  }
  const MdOptimalRetiming md = cell.engine == Engine::kOptRetiming
                                   ? md_minimum_period_retiming(g)
                                   : md_exact_optimal_retiming(g);
  if (cell.cols < md.min_cols || cell.n <= md.retiming.col_retiming().max_value()) {
    return std::nullopt;
  }
  const Span span(kCategory, "codegen.generate");
  return cell.transform == Transform::kRetimed
             ? nested_retimed_program(g, md.retiming, cell.rows, cell.cols)
             : nested_retimed_csr_program(g, md.retiming, cell.rows, cell.cols);
}

/// prepare_cell's unfolding and codegen for classic 1-D cells; nullopt when
/// the cell is infeasible.
std::optional<LoopProgram> generate_table(const SweepCell& cell,
                                          const driver::SweepOptions& options) {
  const DataFlowGraph g = table_graph(cell.benchmark);
  const std::int64_t n = cell.n;
  const int f = cell.factor;
  switch (cell.transform) {
    case Transform::kOriginal: {
      const Span span(kCategory, "codegen.generate");
      return original_program(g, n);
    }
    case Transform::kRetimed:
    case Transform::kRetimedCsr: {
      const auto r = schedule(cell.engine, g, options.machine);
      if (!r || n <= r->max_value()) return std::nullopt;
      const Span span(kCategory, "codegen.generate");
      return cell.transform == Transform::kRetimed ? retimed_program(g, *r, n)
                                                   : retimed_csr_program(g, *r, n);
    }
    case Transform::kUnfolded:
    case Transform::kUnfoldedCsr: {
      {
        const Span span(kCategory, "unfolding.unfold");
        (void)cycle_period(unfold(g, f));
      }
      const Span span(kCategory, "codegen.generate");
      return cell.transform == Transform::kUnfolded ? unfolded_program(g, f, n)
                                                    : unfolded_csr_program(g, f, n);
    }
    case Transform::kRetimedUnfolded:
    case Transform::kRetimedUnfoldedCsr: {
      const auto r = schedule(cell.engine, g, options.machine);
      if (!r) return std::nullopt;
      {
        const Span span(kCategory, "unfolding.unfold");
        (void)cycle_period(unfold(apply_retiming(g, *r), f));
      }
      if (n <= r->max_value()) return std::nullopt;
      const Span span(kCategory, "codegen.generate");
      return cell.transform == Transform::kRetimedUnfolded
                 ? retimed_unfolded_program(g, *r, f, n)
                 : retimed_unfolded_csr_program(g, *r, f, n);
    }
    case Transform::kUnfoldedRetimed:
    case Transform::kUnfoldedRetimedCsr: {
      std::optional<Unfolding> u;
      {
        const Span span(kCategory, "unfolding.unfold");
        u.emplace(g, f);
      }
      const auto r = schedule(cell.engine, u->graph(), options.machine);
      if (!r || n / f <= r->max_value()) return std::nullopt;
      const Span span(kCategory, "codegen.generate");
      return cell.transform == Transform::kUnfoldedRetimed
                 ? unfolded_retimed_program(*u, *r, n)
                 : unfolded_retimed_csr_program(*u, *r, n);
    }
  }
  return std::nullopt;
}

}  // namespace

Restated restate_prepare(const SweepCell& cell, const driver::SweepOptions& options) {
  Restated out;
  try {
    const std::optional<LoopProgram> program =
        cell.rows > 0 ? generate_nested(cell) : generate_table(cell, options);
    if (!program) return out;
    out.runnable = true;
    out.code_size = program->code_size();
    std::optional<LoopProgram> optimized;
    {
      const Span span(kCategory, "loopir.optimize");
      optimized.emplace(optimize_pipeline(*program).program);
    }
    out.measured_size = optimized->code_size();
    if (cell.exec == ExecEngine::kNative) {
      // The emitter settings run_native compiles with.
      const Span span(kCategory, "native.emit");
      CEmitterOptions emitter;
      emitter.semantics = CEmitterOptions::Semantics::kExact;
      emitter.function_name = "csr_kernel";
      out.c_bytes = to_c_source(*optimized, emitter).size();
    }
  } catch (const std::exception&) {
    out.runnable = false;
  }
  return out;
}

}  // namespace layerbench
