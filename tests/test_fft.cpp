// Tests for the sequential FFT / histogram kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <latch>
#include <random>
#include <thread>

#include "apps/fft.hpp"

namespace ap = fxpar::apps;
using ap::Complex;

namespace {

std::vector<Complex> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<Complex> v(n);
  for (auto& z : v) z = Complex(d(rng), d(rng));
  return v;
}

double max_abs_diff(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

bool bitwise_equal(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

}  // namespace

// Defined first so that it makes the process's first FFT calls: eight
// threads race to build the shared per-size tables, and every result must
// match, bit for bit, a single-threaded call made once they exist.
TEST(FftTables, ConcurrentFirstCallsAreBitwiseEqual) {
  constexpr int kThreads = 8;
  constexpr int kMaxLog2 = 12;
  std::vector<std::vector<std::vector<Complex>>> got(
      kThreads, std::vector<std::vector<Complex>>(kMaxLog2 + 1));
  std::latch start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int lg = 1; lg <= kMaxLog2; ++lg) {
        auto v = random_signal(std::size_t{1} << lg, static_cast<unsigned>(lg));
        ap::fft_inplace(v, t % 2 == 1);
        got[static_cast<std::size_t>(t)][static_cast<std::size_t>(lg)] = std::move(v);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int lg = 1; lg <= kMaxLog2; ++lg) {
    for (int t = 0; t < kThreads; ++t) {
      auto want = random_signal(std::size_t{1} << lg, static_cast<unsigned>(lg));
      ap::fft_inplace(want, t % 2 == 1);
      EXPECT_TRUE(bitwise_equal(got[static_cast<std::size_t>(t)][static_cast<std::size_t>(lg)],
                                want))
          << "thread " << t << ", n = 2^" << lg;
    }
  }
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> v(8, Complex(0, 0));
  v[0] = Complex(1, 0);
  ap::fft_inplace(v);
  for (const auto& z : v) {
    EXPECT_NEAR(z.real(), 1.0, 1e-12);
    EXPECT_NEAR(z.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantGivesDelta) {
  std::vector<Complex> v(16, Complex(1, 0));
  ap::fft_inplace(v);
  EXPECT_NEAR(v[0].real(), 16.0, 1e-12);
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_NEAR(std::abs(v[i]), 0.0, 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin) {
  constexpr std::size_t kN = 64;
  constexpr int kTone = 5;
  std::vector<Complex> v(kN);
  for (std::size_t t = 0; t < kN; ++t) {
    const double ang = 2.0 * M_PI * kTone * static_cast<double>(t) / kN;
    v[t] = Complex(std::cos(ang), std::sin(ang));
  }
  ap::fft_inplace(v);
  for (std::size_t k = 0; k < kN; ++k) {
    EXPECT_NEAR(std::abs(v[k]), k == kTone ? 64.0 : 0.0, 1e-9) << "bin " << k;
  }
}

class FftVsDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsDft, MatchesNaiveDft) {
  const auto sig = random_signal(GetParam(), 42);
  auto fast = sig;
  ap::fft_inplace(fast);
  const auto slow = ap::naive_dft(sig);
  EXPECT_LT(max_abs_diff(fast, slow), 1e-9);
}

TEST_P(FftVsDft, InverseRoundTrips) {
  const auto sig = random_signal(GetParam(), 7);
  auto v = sig;
  ap::fft_inplace(v, false);
  ap::fft_inplace(v, true);
  EXPECT_LT(max_abs_diff(v, sig), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Pow2Sizes, FftVsDft, ::testing::Values(1, 2, 4, 8, 32, 128, 256, 512, 1024));

TEST(Fft, NonPow2Rejected) {
  std::vector<Complex> v(12);
  EXPECT_THROW(ap::fft_inplace(v), std::invalid_argument);
}

// Column-wise transform of a row-major block: every column, copied out
// and transformed alone, must come out bitwise equal. The widths include
// the local block widths of the cffts stage at p > 1.
class FftColumns : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(FftColumns, BitwiseEqualToPerColumnFft) {
  const auto [rows, cols] = GetParam();
  for (const bool inverse : {false, true}) {
    auto mat = random_signal(rows * cols, static_cast<unsigned>(rows + cols));
    auto expect = mat;
    std::vector<Complex> col(rows);
    for (std::size_t c = 0; c < cols; ++c) {
      for (std::size_t r = 0; r < rows; ++r) col[r] = expect[r * cols + c];
      ap::fft_inplace(col, inverse);
      for (std::size_t r = 0; r < rows; ++r) expect[r * cols + c] = col[r];
    }
    ap::fft_columns(mat, rows, cols, inverse);
    EXPECT_TRUE(bitwise_equal(mat, expect))
        << rows << " x " << cols << (inverse ? " inverse" : " forward");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FftColumns,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                                         4096),
                       ::testing::Values(1, 3, 4, 64, 256)));

TEST(Fft, ColumnsBoundsChecked) {
  std::vector<Complex> v(8);
  EXPECT_THROW(ap::fft_columns(v, 3, 2), std::invalid_argument);   // rows not a power of two
  EXPECT_THROW(ap::fft_columns(v, 0, 8), std::invalid_argument);
  EXPECT_THROW(ap::fft_columns(v, 4, 4), std::out_of_range);       // span too small
  EXPECT_THROW(ap::fft_columns(v, 2, 2), std::out_of_range);       // span too large
  const std::size_t huge = std::size_t{1} << 62;
  EXPECT_THROW(ap::fft_columns(v, huge, 4), std::out_of_range);    // rows x cols overflows
  std::vector<Complex> empty;
  EXPECT_NO_THROW(ap::fft_columns(empty, 4, 0));
}

TEST(Fft, FlopModelScalesNLogN) {
  EXPECT_DOUBLE_EQ(ap::fft_flops(1), 0.0);
  EXPECT_DOUBLE_EQ(ap::fft_flops(8), 5.0 * 8 * 3);
  EXPECT_GT(ap::fft_flops(1024), ap::fft_flops(512) * 2.0);
}

TEST(Histogram, CountsFallInRightBuckets) {
  std::vector<Complex> v{{0.1, 0.0}, {0.9, 0.0}, {1.9, 0.0}, {5.0, 0.0}};
  const auto h = ap::magnitude_histogram(v, 2, 2.0);
  // bins: [0,1) and [1,2); 5.0 clamps into the last bin.
  EXPECT_EQ(h, (std::vector<std::int64_t>{2, 2}));
}

TEST(Histogram, TotalAlwaysMatchesInput) {
  const auto sig = random_signal(1000, 11);
  const auto h = ap::magnitude_histogram(sig, 16, 1.5);
  std::int64_t total = 0;
  for (auto c : h) total += c;
  EXPECT_EQ(total, 1000);
}

TEST(Histogram, Errors) {
  std::vector<Complex> v(4);
  EXPECT_THROW(ap::magnitude_histogram(v, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(ap::magnitude_histogram(v, 4, 0.0), std::invalid_argument);
}

TEST(IsPow2, Basics) {
  EXPECT_TRUE(ap::is_pow2(1));
  EXPECT_TRUE(ap::is_pow2(1024));
  EXPECT_FALSE(ap::is_pow2(0));
  EXPECT_FALSE(ap::is_pow2(-8));
  EXPECT_FALSE(ap::is_pow2(12));
}
