// Seeded corruptions of a valid input text, shared by the reader mutation
// suites (dqmodel, rule files, schema specs): every on-disk reader must
// answer garbage with a Status, never with an abort, a hang or UB. The
// sanitizer builds run the same suites.

#ifndef DQ_TESTS_MUTATION_H_
#define DQ_TESTS_MUTATION_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"

namespace dq {

/// Deterministic corruptions of `text`: truncations, byte flips and
/// numeric tokens replaced with extreme values.
inline std::vector<std::string> Mutants(const std::string& text,
                                        uint64_t seed) {
  std::vector<std::string> out;
  Rng rng(seed);
  const auto pick = [&](size_t n) {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  // Truncation at many offsets, including every early one.
  for (size_t cut = 0; cut < std::min<size_t>(text.size(), 64); ++cut) {
    out.push_back(text.substr(0, cut));
  }
  for (int i = 0; i < 150; ++i) out.push_back(text.substr(0, pick(text.size())));
  // Byte flips.
  for (int i = 0; i < 300; ++i) {
    std::string m = text;
    const int flips = 1 + static_cast<int>(pick(3));
    for (int k = 0; k < flips; ++k) {
      m[pick(m.size())] = static_cast<char>(pick(256));
    }
    out.push_back(std::move(m));
  }
  // Number inflation: replace one numeric token with an extreme value.
  std::vector<size_t> starts;
  for (size_t i = 0; i < text.size(); ++i) {
    const bool digit = text[i] >= '0' && text[i] <= '9';
    if (digit && (i == 0 || text[i - 1] == ' ')) starts.push_back(i);
  }
  const char* extremes[] = {"99999999999", "-1", "2147483648", "1e308",
                            "-1e308", "nan", "inf", "0", "4294967296",
                            "18446744073709551616"};
  for (int i = 0; i < 300 && !starts.empty(); ++i) {
    const size_t at = starts[pick(starts.size())];
    size_t end = at;
    while (end < text.size() && text[end] != ' ' && text[end] != '\n') ++end;
    std::string m = text;
    m.replace(at, end - at, extremes[pick(std::size(extremes))]);
    out.push_back(std::move(m));
  }
  return out;
}

inline std::string ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

inline void WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

/// Wall time of `fn()` in milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace dq

#endif  // DQ_TESTS_MUTATION_H_
