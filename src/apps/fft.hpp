// fxpar apps: sequential FFT and histogram kernels.
//
// These run on each simulated processor's local data. Each helper both
// computes real values (so tests can verify numerics end to end) and
// returns the floating-point operation count its caller should charge to
// the virtual clock (the standard 5 n log2 n accounting for a radix-2
// complex FFT).
//
// The FFT is an iterative radix-2 kernel driven by per-size read-only
// tables. For each power of two n there are n/2 twiddles cos/sin(2 pi k/n),
// each computed directly (no recurrence, so no accumulated rounding), and
// an n-entry bit-reverse table. A size's tables are built once, on first
// use, under std::call_once; from then on every worker thread only reads
// them. Butterflies are written in explicit real arithmetic: no
// std::complex multiply in the inner loop and no allocation per call.
//
// fft_columns applies the same butterflies to whole rows of a row-major
// block, one twiddle per contiguous run over the columns. Per column it
// performs exactly the arithmetic of fft_inplace, so its result is bitwise
// equal to transforming each column alone.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace fxpar::apps {

using Complex = std::complex<double>;

/// In-place iterative radix-2 complex FFT. `data.size()` must be a power of
/// two. `inverse` applies the conjugate transform including the 1/n scale.
void fft_inplace(std::span<Complex> data, bool inverse = false);

/// In-place FFT of every column of the row-major `rows x cols` block
/// `data`. `rows` must be a power of two (std::invalid_argument) and
/// `data.size()` must equal rows * cols (std::out_of_range). Bitwise equal
/// to fft_inplace on each column copied out alone.
void fft_columns(std::span<Complex> data, std::size_t rows, std::size_t cols,
                 bool inverse = false);

/// Reference O(n^2) DFT for testing.
std::vector<Complex> naive_dft(std::span<const Complex> data, bool inverse = false);

/// Modeled flop cost of one n-point complex FFT.
double fft_flops(std::int64_t n);

/// Histogram of |z| over [0, max_mag) into `bins` buckets; values at or
/// beyond max_mag land in the last bucket.
std::vector<std::int64_t> magnitude_histogram(std::span<const Complex> data, int bins,
                                              double max_mag);

/// Modeled flop cost of histogramming n elements.
double histogram_flops(std::int64_t n);

/// True if `n` is a power of two (and positive).
bool is_pow2(std::int64_t n);

}  // namespace fxpar::apps
