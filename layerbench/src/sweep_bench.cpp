// grid-vm, long-vm and native-cold: the workload's seeded cell list runs
// through driver::run_sweep one cell per call, on one thread, so each cell's
// latency is observable and no cell's compile can hide behind another's.

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <system_error>
#include <thread>

#include "benchmarks/benchmarks.hpp"
#include "driver/config.hpp"
#include "layers.hpp"
#include "native/compile.hpp"
#include "report.hpp"

namespace layerbench {

using csr::driver::ExecEngine;
using csr::driver::RetryPolicy;
using csr::driver::SweepCell;
using csr::driver::SweepConfig;
using csr::driver::SweepResult;

namespace {

/// The per-subprocess compile deadline native-cold runs under. Every
/// compile of the workload but one finishes in under 4 s on a 4-core x86
/// host; the expanded conv3x3 nest needs over 20 s at -O2, so it still
/// exhausts every attempt and falls back to the VM. The library's default
/// (20 s x 3 attempts) would make one run take 90 s.
constexpr double kNativeDeadlineSeconds = 10.0;

/// Set-up probes per measured run; setup_s is their median.
constexpr int kSetupTrials = 21;

RetryPolicy retry_policy() {
  RetryPolicy policy;
  policy.compile_deadline = kNativeDeadlineSeconds;
  return policy;
}

SweepResult run_one(const SweepCell& cell) {
  return csr::driver::run_sweep(SweepConfig().cells({cell}).threads(1).retry(retry_policy()))
      .results.at(0);
}

/// Keeps the calling thread on the fastest allowed CPU, re-chosen every
/// kRepinSeconds by a short spin on each CPU at once. On a shared virtual
/// host each vCPU's speed moves by up to a third within seconds, and not
/// in step with the others; the fastest one at any moment moves far less.
/// Threads and compiler processes the sweep starts inherit the choice.
class FastestCpu {
 public:
  FastestCpu() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) allowed_.push_back(c);
    }
  }
  ~FastestCpu() { pin(allowed_); }
  FastestCpu(const FastestCpu&) = delete;
  FastestCpu& operator=(const FastestCpu&) = delete;

  void maybe_repin() {
    if (allowed_.size() < 2 || seconds_between(chosen_at_, Clock::now()) < kRepinSeconds) {
      return;
    }
    chosen_at_ = Clock::now();
    std::vector<double> took(allowed_.size(), 0);
    std::vector<std::thread> probes;
    try {
      for (std::size_t k = 0; k < allowed_.size(); ++k) {
        probes.emplace_back([&, k] {
          if (!pin({allowed_[k]})) {
            took[k] = 1e9;
            return;
          }
          const auto t0 = Clock::now();
          volatile std::uint64_t x = 0;
          for (std::uint64_t i = 0; i < kSpinIterations; ++i) x = x + i * i;
          took[k] = seconds_between(t0, Clock::now());
        });
      }
    } catch (const std::system_error&) {
      // No thread to probe with: keep the current CPU.
    }
    for (std::thread& t : probes) t.join();
    if (probes.size() < allowed_.size()) return;
    const auto fastest = std::min_element(took.begin(), took.end()) - took.begin();
    (void)pin({allowed_[static_cast<std::size_t>(fastest)]});
  }

 private:
  static constexpr double kRepinSeconds = 0.25;
  static constexpr std::uint64_t kSpinIterations = 5'000'000;  // a few ms

  static bool pin(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus) CPU_SET(c, &set);
    return !cpus.empty() && sched_setaffinity(0, sizeof set, &set) == 0;
  }

  std::vector<int> allowed_;
  Clock::time_point chosen_at_{};
};

std::string describe(const SweepCell& c) {
  std::ostringstream out;
  out << c.benchmark << "/" << to_string(c.engine) << "/" << to_string(c.exec) << "/"
      << to_string(c.transform) << "/f" << c.factor << "/n" << c.n;
  return out.str();
}

/// How a result counts: infeasible by theory counts as neither attempted nor
/// failed; a cell error, an unverified feasible cell and a VM fallback fail.
/// Errors and unverified cells are also wrong results, which make the run
/// incorrect; a fallback still verified on the VM, so it only fails.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t verified = 0;
  std::uint64_t infeasible = 0;
  std::int64_t code_size = 0;
  std::vector<std::string> failures;
  std::vector<std::string> wrong;

  void add(const SweepResult& r) {
    if (!r.feasible && infeasible_by_theory(r.error)) {
      ++infeasible;
      return;
    }
    ++attempted;
    if (r.feasible) code_size += r.measured_size;
    std::string why;
    if (!r.feasible) {
      why = "cell error: " + r.error;
    } else if (!r.verified) {
      why = "feasible but not verified";
    }
    if (!why.empty()) wrong.push_back(describe(r.cell) + ": " + why);
    if (why.empty() && r.engine_fallback) why = "native fell back to the VM";
    if (why.empty()) {
      ++verified;
    } else {
      ++failed;
      failures.push_back(describe(r.cell) + ": " + why);
    }
  }

  void flag_wrong(Report& report) const {
    for (const std::string& w : wrong) report.mismatch(w);
  }
};

/// Re-runs a seeded sample on the map reference interpreter; each must
/// verify with the same size and statement count as the VM run.
void check_map_sample(const RunArgs& args, const std::vector<SweepCell>& cells,
                      const std::vector<SweepResult>& results, Report& report) {
  for (const std::size_t i : map_sample(args.workload, cells.size(), args.seed)) {
    if (!results[i].feasible) continue;
    SweepCell cell = cells[i];
    cell.exec = ExecEngine::kMap;
    const SweepResult ref = run_one(cell);
    if (!ref.verified || ref.measured_size != results[i].measured_size ||
        ref.exec_statements != results[i].exec_statements) {
      report.mismatch("map reference disagrees on " + describe(cells[i]));
    }
  }
}

/// Median set-up time over `trials` fresh processes of this binary running
/// only the set-up phase (`--setup-probe`): process start until the first
/// run_sweep call has returned.
double measure_sweep_setup(const RunArgs& args, int trials, Report& report) {
  std::vector<double> samples;
  for (int t = 0; t < trials; ++t) {
    int fds[2];
    if (pipe(fds) != 0) {
      report.mismatch("pipe failed");
      break;
    }
    const std::string dir = args.run_dir + "/setup-" + std::to_string(t);
    const std::string seed = std::to_string(args.seed);
    const std::string fd = std::to_string(fds[1]);
    const double start = monotonic_seconds();
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      execl(args.self_path.c_str(), args.self_path.c_str(), "--setup-probe", fd.c_str(),
            "--workload", workload_name(args.workload), "--seed", seed.c_str(),
            "--run-dir", dir.c_str(), static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    double ready = 0;
    const ssize_t got = pid > 0 ? read(fds[0], &ready, sizeof ready) : -1;
    close(fds[0]);
    int status = 0;
    if (pid > 0) waitpid(pid, &status, 0);
    if (got != static_cast<ssize_t>(sizeof ready) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      report.mismatch("set-up probe " + std::to_string(t) + " failed");
      continue;
    }
    samples.push_back(ready - start);
  }
  return median(samples);
}

void check_pins(const RunArgs& args, const Tally& tally, Report& report) {
  if (tally.code_size != pinned_code_size(args.workload)) {
    report.mismatch("code_size_instrs " + std::to_string(tally.code_size) +
                    " != pinned " + std::to_string(pinned_code_size(args.workload)));
  }
  if (tally.infeasible != pinned_infeasible(args.workload)) {
    report.mismatch("infeasible cells " + std::to_string(tally.infeasible) +
                    " != pinned " + std::to_string(pinned_infeasible(args.workload)));
  }
}

void check_cold(const RunArgs& args, const csr::native::CacheStats& before, Report& report) {
  const std::int64_t hits = csr::native::compile_cache_stats().hits - before.hits;
  if (args.workload == Workload::kNativeCold && hits != 0) {
    report.mismatch("native-cold saw " + std::to_string(hits) + " compile-cache hits");
  }
}

Report measure(const RunArgs& args, const std::vector<SweepCell>& cells) {
  Report report;
  report.add("setup_s", measure_sweep_setup(args, kSetupTrials, report), "s");

  const csr::native::CacheStats cache_before = csr::native::compile_cache_stats();
  // Whole passes only, so every seed measures the same cells. A second pass
  // over native-cold would be warm, so that workload always runs one.
  const long passes =
      args.workload == Workload::kNativeCold
          ? 1
          : std::max(1L, std::lround(args.seconds / 10 * passes_per_10s(args.workload)));
  const std::size_t calls = static_cast<std::size_t>(passes) * cells.size();
  std::vector<SweepResult> results;
  std::vector<double> call_s;
  results.reserve(calls);
  call_s.reserve(calls);
  FastestCpu cpu;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    cpu.maybe_repin();
    const auto t0 = Clock::now();
    results.push_back(run_one(cells[i % cells.size()]));
    call_s.push_back(seconds_between(t0, Clock::now()));
  }
  const double elapsed = seconds_between(start, Clock::now());
  check_cold(args, cache_before, report);
  // Before the checks: the map interpreter's sample must not set the peak.
  const double peak_rss_mb = self_peak_rss_mb();

  Tally tally;
  Tally once;
  std::vector<double> latencies;
  for (std::size_t i = 0; i < calls; ++i) {
    tally.add(results[i]);
    if (i < cells.size()) once.add(results[i]);
    if (results[i].feasible) latencies.push_back(call_s[i]);
  }
  check_pins(args, once, report);
  tally.flag_wrong(report);
  check_map_sample(args, cells, results, report);
  for (const std::string& f : once.failures) std::cout << "failed: " << f << "\n";

  report.attempted = tally.attempted;
  report.failed = tally.failed;
  const auto [tail_p, tail] = tail_mean(latencies);
  std::cout << "cells " << cells.size() << " x " << passes << " passes in " << elapsed
            << " s; latency tail is p" << tail_p << " over " << latencies.size()
            << " feasible cells\n";
  report.add("cells_per_s", static_cast<double>(tally.verified) / elapsed, "1/s");
  report.add("req_per_s", static_cast<double>(calls) / elapsed, "1/s");
  report.add("latency_p50_ms", median(latencies) * 1e3, "ms");
  report.add("latency_tail_ms", tail * 1e3, "ms");
  report.add("code_size_instrs", static_cast<double>(once.code_size), "instrs");
  report.add("peak_rss_mb", peak_rss_mb, "MB");
  return report;
}

bool is(const TraceEvent& e, const char* category, const char* name) {
  return e.category == category && e.name == name;
}

/// evaluate_cell split at its seam: verify_cell starts with the
/// expected-state VM run, the first vm/run_program span directly under
/// evaluate_cell. What verify spends outside its child spans is the
/// equivalence and write-discipline checks (plus native retry backoff).
struct CellSplit {
  double prepare_s = 0;
  double verify_s = 0;
  double expected_s = 0;
  double exec_s = 0;
  double exec_statements = 0;
  double equivalence_s = 0;
  double cell_s = 0;
};

CellSplit split_cells(const SpanTable& table) {
  CellSplit out;
  const auto& events = table.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& cell = events[i];
    if (!is(cell, "driver", "evaluate_cell")) continue;
    out.cell_s += seconds(cell);
    const auto& kids = table.children(i);
    const auto first = std::find_if(kids.begin(), kids.end(), [&](std::size_t k) {
      return is(events[k], "vm", "run_program");
    });
    if (first == kids.end()) {
      out.prepare_s += seconds(cell);
      continue;
    }
    const std::uint64_t seam = events[*first].start_ns;
    const double verify_s =
        static_cast<double>(cell.start_ns + cell.duration_ns - seam) * 1e-9;
    out.prepare_s += seconds(cell) - verify_s;
    out.verify_s += verify_s;
    out.expected_s += seconds(events[*first]);
    double covered = 0;
    for (auto k = first; k != kids.end(); ++k) {
      covered += seconds(events[*k]);
      if (k != first && is(events[*k], "vm", "run_program")) {
        out.exec_s += seconds(events[*k]);
        out.exec_statements += arg_number(events[*k], "statements");
      }
    }
    out.equivalence_s += verify_s - covered;
  }
  return out;
}

/// Three passes over the cell list: run_sweep untraced, run_sweep with the
/// program's spans on, then the prepare restatement for the layers the
/// program does not span. The second pass compiles into another empty
/// cache, so both native passes are cold.
Report trace(const RunArgs& args, const std::vector<SweepCell>& cells) {
  Report report;
  const auto run_start = Clock::now();
  const csr::native::CacheStats cache_before = csr::native::compile_cache_stats();
  FastestCpu cpu;
  Tally tally;
  const auto t0 = Clock::now();
  for (const SweepCell& cell : cells) {
    cpu.maybe_repin();
    tally.add(run_one(cell));
  }
  const double untraced_s = seconds_between(t0, Clock::now());

  const std::string traced_cache = args.run_dir + "/traced-cache";
  std::filesystem::create_directories(traced_cache);
  setenv("CSR_NATIVE_CACHE_DIR", traced_cache.c_str(), 1);
  std::vector<SweepResult> results;
  double traced_s = 0;
  std::vector<TraceEvent> events = traced([&] {
    const auto t1 = Clock::now();
    for (const SweepCell& cell : cells) {
      cpu.maybe_repin();
      results.push_back(run_one(cell));
    }
    traced_s = seconds_between(t1, Clock::now());
  });
  check_cold(args, cache_before, report);

  csr::driver::SweepOptions options;
  options.retry = retry_policy();
  std::vector<Restated> restated;
  for (TraceEvent& e : traced([&] {
         for (const SweepCell& cell : cells) restated.push_back(restate_prepare(cell, options));
       })) {
    if (e.category == "layerbench") events.push_back(std::move(e));
  }

  Tally traced_tally;
  double code_instrs = 0;
  double removed = 0;
  double c_bytes = 0;
  double fallbacks = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepResult& r = results[i];
    traced_tally.add(r);
    if (restated[i].runnable != r.feasible ||
        (r.feasible && (restated[i].measured_size != r.measured_size ||
                        restated[i].code_size != r.code_size))) {
      report.mismatch("restated prepare disagrees with run_sweep on " + describe(cells[i]));
    }
    if (!r.feasible) continue;
    code_instrs += static_cast<double>(r.code_size);
    removed += static_cast<double>(r.code_size - r.measured_size);
    c_bytes += static_cast<double>(restated[i].c_bytes);
    if (r.engine_fallback) ++fallbacks;
  }
  check_pins(args, traced_tally, report);
  tally.flag_wrong(report);
  traced_tally.flag_wrong(report);
  report.attempted = tally.attempted + traced_tally.attempted;
  report.failed = tally.failed + traced_tally.failed;

  const SpanTable table(std::move(events));
  table.write(std::cout);
  const CellSplit split = split_cells(table);
  const auto ms = [&](const char* layer) { return table.row(layer).total_s * 1e3; };
  const LayerRow compile = table.row("native/compile");
  double timeouts = 0;
  double cache_hits = 0;
  for (const TraceEvent& e : table.events()) {
    if (!is(e, "native", "compile")) continue;
    if (seconds(e) >= kNativeDeadlineSeconds) ++timeouts;
    if (has_arg(e, "cache_hit", "true")) ++cache_hits;
  }
  const double cells_n = static_cast<double>(cells.size());

  report.add("schedule.rotation_ms", ms("schedule/rotation_schedule"), "ms");
  report.add("schedule.modulo_ms", ms("schedule/modulo_schedule"), "ms");
  report.add("retiming.opt_ms", ms("retiming/minimum_period_retiming"), "ms");
  report.add("retiming.exact_ms", ms("retiming/exact_optimal_retiming"), "ms");
  report.add("unfolding.unfold_ms", ms("layerbench/unfolding.unfold"), "ms");
  report.add("codegen.generate_ms", ms("layerbench/codegen.generate"), "ms");
  report.add("codegen.instrs", code_instrs, "instrs");
  report.add("loopir.optimize_ms", ms("layerbench/loopir.optimize"), "ms");
  report.add("loopir.instrs_removed", removed, "instrs");
  report.add("vm.expected_ms", split.expected_s * 1e3, "ms");
  report.add("vm.exec_ms", split.exec_s * 1e3, "ms");
  report.add("vm.stmts_per_s", split.exec_s > 0 ? split.exec_statements / split.exec_s : 0,
             "1/s");
  report.add("vm.equivalence_ms", split.equivalence_s * 1e3, "ms");
  report.add("native.c_bytes", c_bytes, "bytes");
  report.add("native.emit_ms", ms("layerbench/native.emit"), "ms");
  report.add("native.compile_ms", compile.total_s * 1e3, "ms");
  report.add("native.compile_p50_ms", compile.p50_s * 1e3, "ms");
  report.add("native.compile_p99_ms", compile.p99_s * 1e3, "ms");
  report.add("native.compile_timeouts", timeouts, "count");
  report.add("native.fallbacks", fallbacks, "count");
  report.add("native.run_ms", ms("native/dlopen") + ms("native/kernel_run"), "ms");
  report.add("native.cache_hits", cache_hits, "count");
  report.add("driver.prepare_ms", split.prepare_s * 1e3, "ms");
  report.add("driver.verify_ms", split.verify_s * 1e3, "ms");
  report.add("driver.sweep_overhead_ms", (traced_s - split.cell_s) * 1e3, "ms");
  report.add("trace.untraced_rate_per_s", untraced_s > 0 ? cells_n / untraced_s : 0, "1/s");
  report.add("trace.traced_rate_per_s", traced_s > 0 ? cells_n / traced_s : 0, "1/s");
  report.add("trace.overhead_pct", untraced_s > 0 ? 100.0 * (traced_s / untraced_s - 1) : 0,
             "%");
  std::cout << "traced run took " << seconds_between(run_start, Clock::now()) << " s\n";
  return report;
}

}  // namespace

void sweep_setup(const RunArgs& args) {
  const std::string cache = args.run_dir + "/native-cache";
  std::filesystem::create_directories(cache);
  // Cold means cold: a private, empty compile cache per process, never the
  // shared default under the system temp directory.
  setenv("CSR_NATIVE_CACHE_DIR", cache.c_str(), 1);
  setenv("TMPDIR", args.run_dir.c_str(), 1);
  if (args.workload == Workload::kNativeCold && !csr::native::native_available()) {
    std::cerr << "layerbench: no working C compiler for native-cold\n";
    std::exit(1);
  }
}

bool sweep_probe(const RunArgs& args) {
  sweep_setup(args);
  (void)seeded_cells(args.workload, args.seed);
  const SweepCell cell = SweepConfig()
                             .benchmarks({csr::benchmarks::table_benchmarks().front().name})
                             .engines({csr::driver::Engine::kOptRetiming})
                             .transforms({csr::driver::Transform::kRetimedCsr})
                             .factors({2})
                             .trip_counts({101})
                             .cells()
                             .front();
  return run_one(cell).verified;
}

Report run_sweep_workload(const RunArgs& args) {
  sweep_setup(args);
  const std::vector<SweepCell> cells = seeded_cells(args.workload, args.seed);
  return args.trace ? trace(args, cells) : measure(args, cells);
}

}  // namespace layerbench
