#include "hostspeed.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

constexpr int kH = 192, kW = 384, kN = 48, kTable = 1 << 16, kLookups = 20000;

struct Arrays {
  std::vector<float> field, a, b, c;
  std::vector<int> q;
  std::vector<std::uint32_t> table;
  Arrays()
      : field(kH * kW), a(kN * kN), b(kN * kN), c(kN * kN), q(kH * kW),
        table(kTable) {
    for (int i = 0; i < kTable; ++i)
      table[static_cast<std::size_t>(i)] =
          static_cast<std::uint32_t>(i) * 2654435761u;
    for (int i = 0; i < kH * kW; ++i)
      field[static_cast<std::size_t>(i)] =
          std::sin(0.013f * static_cast<float>(i % kW)) *
          std::cos(0.021f * static_cast<float>(i / kW));
    for (int i = 0; i < kN * kN; ++i) {
      a[static_cast<std::size_t>(i)] = static_cast<float>(i % 7) * 0.25f;
      b[static_cast<std::size_t>(i)] = static_cast<float>(i % 5) * 0.5f;
    }
  }
};

// Volatile sink: the kernel's results must not be optimized away.
volatile float g_sink = 0;

}  // namespace

double host_probe_s() {
  static Arrays arr;
  const auto t0 = std::chrono::steady_clock::now();
  const float* f = arr.field.data();
  int acc = 0;
  for (int i = 1; i < kH; ++i)
    for (int j = 1; j < kW; ++j) {
      const float p = f[i * kW + j - 1] + f[(i - 1) * kW + j] -
                      f[(i - 1) * kW + j - 1];
      const int v = static_cast<int>(std::lround((f[i * kW + j] - p) * 500.f));
      arr.q[static_cast<std::size_t>(i * kW + j)] = v;
      acc += v & 7;
    }
  float* c = arr.c.data();
  for (int i = 0; i < kN * kN; ++i) c[i] = 0;
  for (int i = 0; i < kN; ++i)
    for (int k = 0; k < kN; ++k) {
      const float av = arr.a[static_cast<std::size_t>(i * kN + k)];
      for (int j = 0; j < kN; ++j)
        c[i * kN + j] += av * arr.b[static_cast<std::size_t>(k * kN + j)];
    }
  // Dependent table lookups, like entropy decoding: latency-bound work
  // that slows far less than streaming arithmetic under contention.
  std::uint32_t h = 12345;
  for (int i = 0; i < kLookups; ++i)
    h = arr.table[h & (kTable - 1)] ^ (h >> 7) ^
        static_cast<std::uint32_t>(arr.q[static_cast<std::size_t>(i)]);
  g_sink = g_sink + c[kN + 1] + static_cast<float>(acc) +
           static_cast<float>(h & 1023);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
