#pragma once

// Seeded workload inputs. The benchmark derives every input from --seed
// through these functions, so the same seed yields byte-identical inputs
// (tests/seed_test.cpp pins this) and the program under test sees only the
// generated cells or request bodies.

#include <cstdint>
#include <string>
#include <vector>

#include "driver/sweep.hpp"

namespace layerbench {

/// splitmix64: a tiny, platform-independent generator (std:: distributions
/// are implementation-defined, which would make inputs differ by toolchain).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// Fisher–Yates shuffle driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

enum class Workload { kGridVm, kLongVm, kNativeCold, kServeMixed };

[[nodiscard]] bool parse_workload(const std::string& name, Workload* out);
[[nodiscard]] const char* workload_name(Workload w);
[[nodiscard]] bool is_sweep(Workload w);

/// The workload's full cell list (grid order) before seeding.
[[nodiscard]] std::vector<csr::driver::SweepCell> workload_cells(Workload w);

/// The cell list in the seeded order one run executes it.
[[nodiscard]] std::vector<csr::driver::SweepCell> seeded_cells(Workload w,
                                                               std::uint64_t seed);

/// Indices (into seeded_cells) of the cells re-run on the map reference
/// interpreter after the timed section.
[[nodiscard]] std::vector<std::size_t> map_sample(Workload w, std::size_t cells,
                                                  std::uint64_t seed);

/// Passes over the cell list a sweep run makes per 10 s of --seconds: as
/// many as fill about 10 s on a 4-core x86 host, and at least two for
/// grid-vm, whose one-pass p95 latency spread by 0.30 across seeds (the
/// first pass over each cell runs cold). Fixed, so the work does not depend
/// on the host's speed.
[[nodiscard]] int passes_per_10s(Workload w);

/// Pinned sum of measured_size over the workload's distinct cells, as
/// measured when the benchmark was defined; a run whose total differs is
/// reported incorrect.
[[nodiscard]] std::int64_t pinned_code_size(Workload w);

/// Pinned number of cells that are infeasible by theory (rotation/modulo
/// have no 2-D resource model, so nested cells under them cannot schedule).
[[nodiscard]] std::size_t pinned_infeasible(Workload w);

/// Infeasibility the model predicts (as opposed to a cell error).
[[nodiscard]] bool infeasible_by_theory(const std::string& error);

// --- serve-mixed ------------------------------------------------------------

/// One request of the serve-mixed stream: a /v1/sweep body, and whether it
/// repeats a hot (primed) body.
struct Request {
  std::string body;
  bool hot = false;
};

/// The hot set primed during set-up: one 15-cell query per table benchmark.
[[nodiscard]] std::vector<std::string> hot_bodies();

/// The /v1/sweep body of one miss query.
[[nodiscard]] std::string miss_body(const std::string& benchmark, std::int64_t n);

/// The first `count` requests of the seeded stream. About 80 % repeat a hot
/// body; the rest are misses over distinct (benchmark, n) pairs drawn
/// without replacement, so every miss is a genuine cell-cache miss.
[[nodiscard]] std::vector<Request> request_stream(std::uint64_t seed,
                                                  std::size_t count);

/// Upper bound on the misses request_stream can produce fresh.
[[nodiscard]] std::size_t miss_capacity();

}  // namespace layerbench
