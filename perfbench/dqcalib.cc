// dqcalib — the benchmark's host-speed probe.
//
// Usage:
//   dqcalib REPS
//
// Runs a fixed piece of work REPS times on one thread and prints each
// repetition's wall time in seconds, one per line. The work mixes what an
// audit does: random reads from an 8 MiB table, a sort of 300,000 keys
// and a pass of logarithms. It uses nothing from the dqtools library, so a
// change to the program never moves it; only the speed of the host does.
// run.py scales the times it measures by this probe's nominal time over its
// median in the same run (HostClock in run.py).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

constexpr uint32_t kTableSize = 1u << 21;
constexpr int kLookups = 2000000;
constexpr size_t kSortKeys = 300000;

uint32_t Next(uint32_t x) { return x * 1664525u + 1013904223u; }

double Work(const std::vector<uint32_t>& table, std::vector<uint32_t>& keys) {
  uint32_t x = 1;
  uint64_t sum = 0;
  for (int i = 0; i < kLookups; ++i) {
    x = Next(x);
    sum += table[(x >> 7) & (kTableSize - 1)];
  }
  for (uint32_t& k : keys) {
    x = Next(x);
    k = x;
  }
  std::sort(keys.begin(), keys.end());
  double logs = 0.0;
  for (size_t i = 0; i < keys.size(); i += 4) logs += std::log(1.0 + keys[i]);
  return logs + static_cast<double>(sum) + keys[keys.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  int reps = argc == 2 ? std::atoi(argv[1]) : 0;
  if (reps <= 0) {
    std::fprintf(stderr, "usage: dqcalib REPS\n");
    return 2;
  }
  std::vector<uint32_t> table(kTableSize);
  for (uint32_t i = 0; i < kTableSize; ++i) table[i] = i * 2654435761u;
  std::vector<uint32_t> keys(kSortKeys);
  volatile double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    sink = sink + Work(table, keys);
    std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    std::printf("%.9f\n", took.count());
  }
  return 0;
}
