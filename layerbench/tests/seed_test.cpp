// Seed determinism: the same seed yields a byte-identical cell list and
// request stream; a different seed changes the serve-mixed stream.

#include <iostream>
#include <set>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

using namespace layerbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

std::string cells_text(Workload w, std::uint64_t seed) {
  std::ostringstream out;
  for (const auto& c : seeded_cells(w, seed)) {
    out << c.benchmark << '|' << to_string(c.engine) << '|' << to_string(c.exec) << '|'
        << to_string(c.transform) << '|' << c.factor << '|' << c.n << '|' << c.rows << '|'
        << c.cols << '\n';
  }
  for (const std::size_t i : map_sample(w, workload_cells(w).size(), seed)) out << i << ',';
  return out.str();
}

std::string stream_text(std::uint64_t seed) {
  std::string out;
  for (const Request& r : request_stream(seed, 3000)) {
    out += r.hot ? "H " : "M ";
    out += r.body;
    out += '\n';
  }
  return out;
}

}  // namespace

int main() {
  for (const Workload w : {Workload::kGridVm, Workload::kLongVm, Workload::kNativeCold}) {
    const std::string name = workload_name(w);
    expect(cells_text(w, 7) == cells_text(w, 7), name + ": same seed, same cells");
    expect(seeded_cells(w, 7).size() == workload_cells(w).size(),
           name + ": seeding keeps every cell");
  }
  expect(workload_cells(Workload::kGridVm).size() == 408, "grid-vm has 408 cells");
  expect(workload_cells(Workload::kLongVm).size() == 204, "long-vm has 204 cells");
  expect(workload_cells(Workload::kNativeCold).size() == 42, "native-cold has 42 cells");

  expect(stream_text(7) == stream_text(7), "same seed, same request stream");
  expect(stream_text(7) != stream_text(8), "different seed, different request stream");

  std::size_t hot = 0;
  std::size_t misses = 0;
  std::set<std::string> miss_bodies;
  for (const Request& r : request_stream(7, 3000)) {
    if (r.hot) {
      ++hot;
    } else {
      ++misses;
      miss_bodies.insert(r.body);
    }
  }
  expect(hot == 2400, "exactly one request in five is a miss");
  expect(miss_bodies.size() == misses, "every miss body is distinct");

  if (failures == 0) std::cout << "seed_test: ok\n";
  return failures == 0 ? 0 : 1;
}
