#include "metrics/metrics.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "metrics/blob.hpp"

namespace fxpar::metrics {

namespace {

/// JSON/exposition-safe number: finite values print shortest-roundtrip-ish
/// via %.17g trimmed by %g semantics; non-finite becomes null (JSON) or
/// NaN/Inf (Prometheus accepts them, JSON does not).
std::string num_json(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string num_prom(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

/// Prometheus label values / JSON strings share the same escape set.
std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<std::uint64_t> Histogram::merged_buckets() const {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(kHistBuckets), 0);
  for (const auto& s : shards_) {
    for (int i = 0; i < kHistBuckets; ++i) {
      out[static_cast<std::size_t>(i)] +=
          s.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

double Histogram::quantile(double q) const {
  const auto buckets = merged_buckets();
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, 1-based; ceil so quantile(1.0) is the max bucket.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (int i = 0; i < kHistBuckets; ++i) {
    seen += buckets[static_cast<std::size_t>(i)];
    if (seen >= rank) return detail::bucket_upper(i);
  }
  return detail::bucket_upper(kHistBuckets - 1);
}

Registry::Registry(int shards) : shards_(shards < 1 ? 1 : shards) {}

Counter* Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  counter_storage_.emplace_back(shards_);
  Counter* c = &counter_storage_.back();
  counters_.emplace(name, c);
  return c;
}

Gauge* Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  gauge_storage_.emplace_back();
  Gauge* g = &gauge_storage_.back();
  gauges_.emplace(name, g);
  return g;
}

Histogram* Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = hists_.find(name);
  if (it != hists_.end()) return it->second;
  hist_storage_.emplace_back(shards_);
  Histogram* h = &hist_storage_.back();
  hists_.emplace(name, h);
  return h;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.t = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : hists_) {
    Snapshot::Hist sh;
    sh.buckets = h->merged_buckets();
    sh.count = h->count();
    sh.sum = h->sum();
    sh.p50 = h->quantile(0.50);
    sh.p95 = h->quantile(0.95);
    sh.p99 = h->quantile(0.99);
    snap.histograms[name] = std::move(sh);
  }
  return snap;
}

std::string Snapshot::to_prometheus() const {
  std::ostringstream oss;
  for (const auto& [name, v] : counters) {
    oss << "# TYPE " << name << " counter\n" << name << " " << v << "\n";
  }
  for (const auto& [name, v] : gauges) {
    oss << "# TYPE " << name << " gauge\n" << name << " " << num_prom(v) << "\n";
  }
  for (const auto& [name, h] : histograms) {
    oss << "# TYPE " << name << " histogram\n";
    std::uint64_t cum = 0;
    for (int i = 0; i < kHistBuckets; ++i) {
      const std::uint64_t b = h.buckets[static_cast<std::size_t>(i)];
      if (b == 0) continue;  // sparse exposition: skip empty buckets
      cum += b;
      oss << name << "_bucket{le=\"" << num_prom(detail::bucket_upper(i)) << "\"} "
          << cum << "\n";
    }
    oss << name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    oss << name << "_sum " << num_prom(h.sum) << "\n";
    oss << name << "_count " << h.count << "\n";
    oss << name << "_p50 " << num_prom(h.p50) << "\n";
    oss << name << "_p95 " << num_prom(h.p95) << "\n";
    oss << name << "_p99 " << num_prom(h.p99) << "\n";
  }
  return oss.str();
}

std::string Snapshot::to_json() const {
  std::ostringstream oss;
  oss << "{\"t\":" << num_json(t) << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) oss << ",";
    first = false;
    oss << "\"" << escaped(name) << "\":" << v;
  }
  oss << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) oss << ",";
    first = false;
    oss << "\"" << escaped(name) << "\":" << num_json(v);
  }
  oss << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) oss << ",";
    first = false;
    oss << "\"" << escaped(name) << "\":{\"count\":" << h.count
        << ",\"sum\":" << num_json(h.sum) << ",\"p50\":" << num_json(h.p50)
        << ",\"p95\":" << num_json(h.p95) << ",\"p99\":" << num_json(h.p99) << "}";
  }
  oss << "}}";
  return oss.str();
}

bool Sampler::poll() {
  const auto now = std::chrono::steady_clock::now();
  if (!have_last_) {
    last_ = now;
    have_last_ = true;
    series_.push_back(reg_.snapshot());
    return true;
  }
  const double since = std::chrono::duration<double>(now - last_).count();
  if (since < period_s_) return false;
  // Advance the anchor by whole periods instead of re-anchoring at `now`:
  // re-anchoring adds the snapshot's processing time to every interval, so
  // the cadence drifts and a series polled from a busy worker loses samples
  // against the nominal grid.
  const auto whole = static_cast<std::int64_t>(since / period_s_);
  last_ += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(static_cast<double>(whole) * period_s_));
  series_.push_back(reg_.snapshot());
  return true;
}

void Sampler::force() {
  last_ = std::chrono::steady_clock::now();
  have_last_ = true;
  series_.push_back(reg_.snapshot());
}

void Sampler::finish() {
  // Terminal sample only — the anchor stays where the grid put it, so a
  // long-lived sampler polled across many stream epochs is not re-phased by
  // each epoch's shutdown flush.
  series_.push_back(reg_.snapshot());
}

std::string Sampler::series_json(const std::vector<Snapshot>& series) {
  std::ostringstream oss;
  oss << "[";
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i) oss << ",";
    oss << series[i].to_json();
  }
  oss << "]";
  return oss.str();
}

std::vector<std::byte> serialize_delta(const Snapshot& base, const Snapshot& end) {
  // [u32 counters][u32 histograms] entries...; the counts are patched in
  // once known.
  std::vector<std::byte> out(2 * sizeof(std::uint32_t));
  std::uint32_t nc = 0;
  for (const auto& [name, v] : end.counters) {
    const std::uint64_t d = v - base.counter(name);
    if (d == 0) continue;
    blob::put_str(out, name);
    blob::put<std::uint64_t>(out, d);
    ++nc;
  }
  std::uint32_t nh = 0;
  for (const auto& [name, h] : end.histograms) {
    auto it = base.histograms.find(name);
    const Snapshot::Hist* b = it == base.histograms.end() ? nullptr : &it->second;
    const std::uint64_t count_d = h.count - (b ? b->count : 0);
    const double sum_d = h.sum - (b ? b->sum : 0.0);
    if (count_d == 0 && sum_d == 0.0) continue;
    std::vector<std::uint64_t> buckets(h.buckets.size());
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      buckets[i] = h.buckets[i] - (b && i < b->buckets.size() ? b->buckets[i] : 0);
    }
    blob::put_str(out, name);
    blob::put_pod_vec(out, buckets);
    blob::put<std::uint64_t>(out, count_d);
    blob::put<double>(out, sum_d);
    ++nh;
  }
  if (nc == 0 && nh == 0) return {};
  std::memcpy(out.data(), &nc, sizeof nc);
  std::memcpy(out.data() + sizeof nc, &nh, sizeof nh);
  return out;
}

void absorb_delta(Registry& reg, const std::byte* p, std::size_t len) {
  blob::Reader in(p, len, "metrics::absorb_delta");
  const auto nc = in.get<std::uint32_t>();
  const auto nh = in.get<std::uint32_t>();
  // Every entry takes at least a 4-byte name length, so the counts are
  // bounded by the blob before anything is sized from them.
  in.need(std::uint64_t{nc} + nh, sizeof(std::uint32_t));
  std::vector<std::pair<std::string, std::uint64_t>> counters(nc);
  for (auto& [name, d] : counters) {
    name = in.get_str();
    d = in.get<std::uint64_t>();
  }
  struct HistDelta {
    std::string name;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::vector<HistDelta> hists(nh);
  for (HistDelta& h : hists) {
    h.name = in.get_str();
    h.buckets = in.get_pod_vec<std::uint64_t>();
    h.count = in.get<std::uint64_t>();
    h.sum = in.get<double>();
  }
  for (const auto& [name, d] : counters) reg.counter(name)->add(0, d);
  for (const HistDelta& h : hists) reg.histogram(h.name)->absorb(h.buckets, h.count, h.sum);
}

}  // namespace fxpar::metrics
