#include "apps/fft.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <string>

namespace fxpar::apps {

namespace {

// Read-only tables for one size n = 2^lg: twiddle k is (cos[k], sin[k]) =
// cos/sin(2 pi k / n) for k < n/2, and rev[i] is i with its lg low bits
// reversed.
struct FftTable {
  std::vector<double> cos, sin;
  std::vector<std::size_t> rev;
};

// One slot per bit of std::size_t, so every power-of-two size has one.
// Both arrays are constant-initialized, so they are usable from any
// static initializer.
constexpr std::size_t kMaxLog2 = std::numeric_limits<std::size_t>::digits;
std::array<std::once_flag, kMaxLog2> g_table_once;
std::array<FftTable, kMaxLog2> g_tables;

const FftTable& fft_table(std::size_t lg) {
  std::call_once(g_table_once[lg], [lg] {
    FftTable& t = g_tables[lg];
    const std::size_t n = std::size_t{1} << lg;
    t.cos.resize(n / 2);
    t.sin.resize(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
      const double ang =
          2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
      t.cos[k] = std::cos(ang);
      t.sin[k] = std::sin(ang);
    }
    t.rev.assign(n, 0);
    for (std::size_t i = 1; i < n; ++i) t.rev[i] = (t.rev[i >> 1] >> 1) | ((i & 1) << (lg - 1));
  });
  return g_tables[lg];
}

// Validates a transform length and returns its log2.
std::size_t checked_log2(std::size_t n, const char* what) {
  if (!is_pow2(static_cast<std::int64_t>(n))) {
    throw std::invalid_argument(std::string(what) + ": size must be a power of two");
  }
  return static_cast<std::size_t>(std::countr_zero(n));
}

// The radix-2 butterfly on the complex pair at p and q (interleaved
// re, im) with twiddle (wr, wi): q *= w, then (p, q) = (p + q, p - q).
// Both kernels go through this one expression, which is what makes
// fft_columns bitwise equal to fft_inplace per column.
inline void butterfly(double* p, double* q, double wr, double wi) {
  const double br = q[0], bi = q[1];
  const double vr = br * wr - bi * wi;
  const double vi = br * wi + bi * wr;
  const double ur = p[0], ui = p[1];
  p[0] = ur + vr;
  p[1] = ui + vi;
  q[0] = ur - vr;
  q[1] = ui - vi;
}

// The forward transform uses twiddles exp(-2 pi i k/len), the inverse
// exp(+2 pi i k/len): only the sign of the imaginary part differs, and
// multiplying by +-1 is exact.
double twiddle_sign(bool inverse) { return inverse ? 1.0 : -1.0; }

void scale_inverse(std::span<Complex> data, std::size_t n) {
  const double scale = 1.0 / static_cast<double>(n);
  for (Complex& z : data) z *= scale;
}

}  // namespace

bool is_pow2(std::int64_t n) { return n > 0 && (n & (n - 1)) == 0; }

void fft_inplace(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  const std::size_t lg = checked_log2(n, "fft_inplace");
  const auto& rev = fft_table(lg).rev;
  for (std::size_t i = 1; i < n; ++i) {
    if (i < rev[i]) std::swap(data[i], data[rev[i]]);
  }
  // std::complex<double> is layout-compatible with double[2].
  double* a = reinterpret_cast<double*>(data.data());
  const double sign = twiddle_sign(inverse);
  for (std::size_t s = 1; s <= lg; ++s) {
    const std::size_t half = std::size_t{1} << (s - 1);
    const auto& tw = fft_table(s);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      double* p = a + 2 * i;
      double* q = p + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        butterfly(p + 2 * k, q + 2 * k, tw.cos[k], sign * tw.sin[k]);
      }
    }
  }
  if (inverse) scale_inverse(data, n);
}

void fft_columns(std::span<Complex> data, std::size_t rows, std::size_t cols, bool inverse) {
  const std::size_t lg = checked_log2(rows, "fft_columns");
  // The division guards the product against overflow.
  if ((cols != 0 && rows > data.size() / cols) || data.size() != rows * cols) {
    throw std::out_of_range("fft_columns: span is not rows x cols");
  }
  if (cols == 0) return;
  // Bit reversal moves whole rows.
  const auto& rev = fft_table(lg).rev;
  for (std::size_t i = 1; i < rows; ++i) {
    if (i < rev[i]) {
      std::swap_ranges(data.begin() + static_cast<std::ptrdiff_t>(i * cols),
                       data.begin() + static_cast<std::ptrdiff_t>((i + 1) * cols),
                       data.begin() + static_cast<std::ptrdiff_t>(rev[i] * cols));
    }
  }
  double* a = reinterpret_cast<double*>(data.data());
  const std::size_t row = 2 * cols;  // doubles per row
  const double sign = twiddle_sign(inverse);
  for (std::size_t s = 1; s <= lg; ++s) {
    const std::size_t half = std::size_t{1} << (s - 1);
    const auto& tw = fft_table(s);
    for (std::size_t i = 0; i < rows; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = tw.cos[k], wi = sign * tw.sin[k];
        double* __restrict__ p = a + (i + k) * row;
        double* __restrict__ q = p + half * row;
        for (std::size_t c = 0; c < row; c += 2) butterfly(p + c, q + c, wr, wi);
      }
    }
  }
  if (inverse) scale_inverse(data, rows);
}

std::vector<Complex> naive_dft(std::span<const Complex> data, bool inverse) {
  const std::size_t n = data.size();
  std::vector<Complex> out(n);
  const double sign = inverse ? 2.0 : -2.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang =
          sign * std::numbers::pi * static_cast<double>(k * j) / static_cast<double>(n);
      acc += data[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

double fft_flops(std::int64_t n) {
  if (n <= 1) return 0.0;
  return 5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n));
}

std::vector<std::int64_t> magnitude_histogram(std::span<const Complex> data, int bins,
                                              double max_mag) {
  if (bins <= 0) throw std::invalid_argument("magnitude_histogram: bins must be positive");
  if (max_mag <= 0.0) throw std::invalid_argument("magnitude_histogram: max_mag must be positive");
  std::vector<std::int64_t> hist(static_cast<std::size_t>(bins), 0);
  for (const Complex& z : data) {
    const double m = std::abs(z);
    int b = static_cast<int>(m / max_mag * static_cast<double>(bins));
    if (b >= bins) b = bins - 1;
    if (b < 0) b = 0;
    hist[static_cast<std::size_t>(b)] += 1;
  }
  return hist;
}

double histogram_flops(std::int64_t n) {
  // magnitude (sqrt + 2 mul + add) + scale + clamp ~ 8 ops per element.
  return 8.0 * static_cast<double>(n);
}

}  // namespace fxpar::apps
