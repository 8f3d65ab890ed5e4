// layerbench — the repository's benchmark harness. See ../README.md.
//
//   layerbench --workload NAME --seed N --seconds S --trace 0|1
//              --run-dir DIR [--serve-bin PATH]
//
// Prints diagnostics, then one JSON result as the last stdout line; exits 1
// when a correctness check fails and 2 on bad arguments.

#include <malloc.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

#include "report.hpp"

namespace {

using layerbench::Metric;
using layerbench::Report;
using layerbench::RunArgs;

/// Every per-layer metric a traced run prints; layers a workload does not
/// exercise read 0.
const Metric kLayerMetrics[] = {
    {"schedule.rotation_ms", 0, "ms"},       {"schedule.modulo_ms", 0, "ms"},
    {"retiming.opt_ms", 0, "ms"},            {"retiming.exact_ms", 0, "ms"},
    {"unfolding.unfold_ms", 0, "ms"},        {"codegen.generate_ms", 0, "ms"},
    {"codegen.instrs", 0, "instrs"},         {"loopir.optimize_ms", 0, "ms"},
    {"loopir.instrs_removed", 0, "instrs"},  {"vm.expected_ms", 0, "ms"},
    {"vm.exec_ms", 0, "ms"},                 {"vm.stmts_per_s", 0, "1/s"},
    {"vm.equivalence_ms", 0, "ms"},          {"native.c_bytes", 0, "bytes"},
    {"native.emit_ms", 0, "ms"},             {"native.compile_ms", 0, "ms"},
    {"native.compile_p50_ms", 0, "ms"},      {"native.compile_p99_ms", 0, "ms"},
    {"native.compile_timeouts", 0, "count"}, {"native.fallbacks", 0, "count"},
    {"native.run_ms", 0, "ms"},              {"native.cache_hits", 0, "count"},
    {"driver.prepare_ms", 0, "ms"},          {"driver.verify_ms", 0, "ms"},
    {"driver.sweep_overhead_ms", 0, "ms"},   {"driver.export_ms", 0, "ms"},
    {"serve.http_parse_us", 0, "us"},        {"serve.parse_query_us", 0, "us"},
    {"serve.memo_hit_us", 0, "us"},          {"serve.miss_execute_ms", 0, "ms"},
    {"serve.memo_hit_ratio", 0, "ratio"},    {"serve.cell_hit_ratio", 0, "ratio"},
    {"serve.batch_lanes_per_run", 0, "lanes"}, {"support.journal_append_ms", 0, "ms"},
    {"trace.untraced_rate_per_s", 0, "1/s"}, {"trace.traced_rate_per_s", 0, "1/s"},
    {"trace.overhead_pct", 0, "%"},
};

int usage() {
  std::cerr << "usage: layerbench --workload grid-vm|long-vm|native-cold|serve-mixed"
               " --seed N --seconds S --trace 0|1 --run-dir DIR [--serve-bin PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string workload;
  int probe_fd = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--run-dir") {
      args.run_dir = value;
    } else if (key == "--serve-bin") {
      args.serve_path = value;
    } else if (key == "--setup-probe") {
      probe_fd = std::atoi(value.c_str());
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 != 1 || !layerbench::parse_workload(workload, &args.workload) ||
      args.run_dir.empty() || args.seconds <= 0) {
    return usage();
  }
  args.self_path = std::filesystem::canonical("/proc/self/exe").string();
  // A fixed mmap threshold turns off glibc's dynamic one, under which the
  // order cells run in decides how much freed heap stays resident; peak RSS
  // then tracks the largest working set instead of the seed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  if (probe_fd >= 0) {
    // Set-up probe: everything a measured run does before its first timed
    // cell, then one run_sweep call; report the ready time to the parent.
    if (!layerbench::sweep_probe(args)) return 1;
    const double ready = layerbench::monotonic_seconds();
    return write(probe_fd, &ready, sizeof ready) == sizeof ready ? 0 : 1;
  }
  if (!layerbench::is_sweep(args.workload) && args.serve_path.empty()) return usage();

  Report report = layerbench::is_sweep(args.workload)
                      ? layerbench::run_sweep_workload(args)
                      : layerbench::run_serve_workload(args);
  if (args.trace) {
    std::set<std::string> have;
    for (const Metric& m : report.metrics) have.insert(m.name);
    for (const Metric& m : kLayerMetrics) {
      if (have.count(m.name) == 0) report.metrics.push_back(m);
    }
  }
  constexpr std::size_t kShownMismatches = 20;
  for (std::size_t i = 0; i < report.mismatches.size() && i < kShownMismatches; ++i) {
    std::cout << "MISMATCH: " << report.mismatches[i] << "\n";
  }
  if (report.mismatches.size() > kShownMismatches) {
    std::cout << "MISMATCH: ... and " << report.mismatches.size() - kShownMismatches
              << " more\n";
  }
  std::cout << report.json() << std::endl;
  return report.correct ? 0 : 1;
}
