#include "workloads.hpp"

#include <algorithm>

#include "benchmarks/benchmarks.hpp"
#include "driver/config.hpp"
#include "mdfg/builders.hpp"

namespace layerbench {

using csr::driver::Engine;
using csr::driver::ExecEngine;
using csr::driver::SweepCell;
using csr::driver::SweepConfig;
using csr::driver::Transform;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) { return next() % bound; }

namespace {

constexpr struct {
  Workload workload;
  const char* name;
} kNames[] = {
    {Workload::kGridVm, "grid-vm"},
    {Workload::kLongVm, "long-vm"},
    {Workload::kNativeCold, "native-cold"},
    {Workload::kServeMixed, "serve-mixed"},
};

std::vector<std::string> table_names() {
  std::vector<std::string> out;
  for (const auto& info : csr::benchmarks::table_benchmarks()) out.push_back(info.name);
  return out;
}

std::vector<std::string> nested_names() {
  std::vector<std::string> out;
  for (const auto& info : csr::mdfg::md_benchmarks()) out.push_back(info.name);
  return out;
}

/// The paper's table grid (every transform, f in {2,3}) under `engines`,
/// plus the nested family at `shape`.
std::vector<SweepCell> grid(const std::vector<Engine>& engines, std::int64_t n,
                            csr::driver::LoopShape shape) {
  std::vector<std::string> names = table_names();
  for (const std::string& name : nested_names()) names.push_back(name);
  return SweepConfig()
      .benchmarks(names)
      .engines(engines)
      .trip_counts({n})
      .shapes({shape})
      .factors({2, 3})
      .cells();
}

std::vector<SweepCell> native_cold_cells() {
  std::vector<SweepCell> cells =
      SweepConfig()
          .benchmarks(table_names())
          .engines({Engine::kOptRetiming})
          .exec_engines({ExecEngine::kNative})
          .trip_counts({10000})
          .factors({3})
          .transforms({Transform::kOriginal, Transform::kRetimed, Transform::kRetimedCsr,
                       Transform::kUnfoldedRetimed, Transform::kUnfoldedRetimedCsr})
          .cells();
  for (SweepCell& cell : SweepConfig()
                             .benchmarks(nested_names())
                             .engines({Engine::kOptExact})
                             .exec_engines({ExecEngine::kNative})
                             .shapes({{8, 24}})
                             .transforms({Transform::kOriginal, Transform::kRetimed,
                                          Transform::kRetimedCsr})
                             .cells()) {
    cells.push_back(std::move(cell));
  }
  return cells;
}

// Miss queries draw n = kMissBase + 6·slot: a multiple of 6, so unfolded
// forms at f in {2,3} have no remainder and every miss cell has the same
// measured size as its hot-set counterpart. The slot range keeps n small
// enough that a miss costs tens of milliseconds.
constexpr std::int64_t kMissBase = 108;
constexpr std::uint64_t kMissSlots = 128;
constexpr std::int64_t kHotN = 102;

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (const auto& entry : kNames) {
    if (name == entry.name) {
      *out = entry.workload;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  for (const auto& entry : kNames) {
    if (entry.workload == w) return entry.name;
  }
  return "?";
}

bool is_sweep(Workload w) { return w != Workload::kServeMixed; }

std::vector<SweepCell> workload_cells(Workload w) {
  switch (w) {
    case Workload::kGridVm:
      return grid({Engine::kOptRetiming, Engine::kRotation, Engine::kModulo,
                   Engine::kOptExact},
                  101, {8, 24});
    case Workload::kLongVm:
      return grid({Engine::kOptRetiming, Engine::kOptExact}, 5000, {50, 100});
    case Workload::kNativeCold:
      return native_cold_cells();
    case Workload::kServeMixed:
      break;
  }
  return {};
}

std::vector<SweepCell> seeded_cells(Workload w, std::uint64_t seed) {
  // The seed picks where in grid order the run starts. A rotation, not a
  // shuffle: neighbouring cells stay neighbours, so the allocator sees the
  // same sequence on every seed and peak RSS does not depend on it.
  std::vector<SweepCell> cells = workload_cells(w);
  if (!cells.empty()) {
    Rng rng(seed);
    std::rotate(cells.begin(), cells.begin() + static_cast<std::ptrdiff_t>(
                                                  rng.below(cells.size())),
                cells.end());
  }
  return cells;
}

std::vector<std::size_t> map_sample(Workload w, std::size_t cells, std::uint64_t seed) {
  // The map interpreter is an order of magnitude slower than the VM, so
  // long-vm samples fewer cells; native-cold and serve-mixed check against
  // other references (the VM and the offline export).
  std::size_t want = 0;
  if (w == Workload::kGridVm) want = 12;
  if (w == Workload::kLongVm) want = 3;
  std::vector<std::size_t> idx(cells);
  for (std::size_t i = 0; i < cells; ++i) idx[i] = i;
  Rng rng(seed ^ 0x6d61702d73616d70ULL);
  shuffle(idx, rng);
  idx.resize(std::min(want, cells));
  std::sort(idx.begin(), idx.end());
  return idx;
}

int passes_per_10s(Workload w) {
  switch (w) {
    case Workload::kGridVm:
      return 2;
    case Workload::kLongVm:
      return 6;
    case Workload::kNativeCold:
    case Workload::kServeMixed:
      break;
  }
  return 1;
}

std::int64_t pinned_code_size(Workload w) {
  switch (w) {
    case Workload::kGridVm:
      return 27886;
    case Workload::kLongVm:
      return 14426;
    case Workload::kNativeCold:
      return 2960;
    case Workload::kServeMixed:
      return 5742;
  }
  return -1;
}

std::size_t pinned_infeasible(Workload w) { return w == Workload::kGridVm ? 16 : 0; }

bool infeasible_by_theory(const std::string& error) {
  return error == "engine not supported for nested (2-D) cells" ||
         error == "engine found no schedule" || error == "trip count <= pipeline depth" ||
         error == "need more than M'_r full unfolded trips";
}

std::vector<std::string> hot_bodies() {
  std::vector<std::string> out;
  for (const std::string& name : table_names()) out.push_back(miss_body(name, kHotN));
  return out;
}

std::string miss_body(const std::string& benchmark, std::int64_t n) {
  return "{\"benchmarks\":[\"" + benchmark + "\"],\"trip_counts\":[" +
         std::to_string(n) + "],\"factors\":[2,3],\"exec_engines\":[\"vm\"]}";
}

std::size_t miss_capacity() { return table_names().size() * kMissSlots; }

std::vector<Request> request_stream(std::uint64_t seed, std::size_t count) {
  const std::vector<std::string> names = table_names();
  const std::vector<std::string> hot = hot_bodies();
  Rng rng(seed);
  // Each benchmark walks its own seeded permutation of the n slots, so no
  // miss repeats another and each is a genuine cache miss.
  std::vector<std::vector<std::int64_t>> slots(names.size());
  for (auto& order : slots) {
    for (std::uint64_t k = 0; k < kMissSlots; ++k) {
      order.push_back(kMissBase + 6 * static_cast<std::int64_t>(k));
    }
    shuffle(order, rng);
  }
  // The mix is stratified so every seed carries the same work: exactly one
  // miss in each block of five requests, at a seeded position, and every
  // benchmark once in each block of six misses, in a seeded order.
  std::vector<std::size_t> benchmark_order;
  std::size_t misses = 0;
  std::size_t miss_at = 0;
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 5 == 0) miss_at = i + rng.below(5);
    if (i != miss_at || misses == miss_capacity()) {
      out.push_back({hot[rng.below(hot.size())], true});
      continue;
    }
    if (misses % names.size() == 0) {
      benchmark_order.resize(names.size());
      for (std::size_t b = 0; b < names.size(); ++b) benchmark_order[b] = b;
      shuffle(benchmark_order, rng);
    }
    const std::size_t b = benchmark_order[misses % names.size()];
    const std::int64_t n = slots[b][misses / names.size()];
    ++misses;
    out.push_back({miss_body(names[b], n), false});
  }
  return out;
}

}  // namespace layerbench
