#include "harness.hpp"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt * 0xd1b54a32d192ed03ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double iq_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

/// The highest of `q` and the quantile that leaves at least ten samples
/// above it, so a reported tail always rests on at least ten samples.
double tail_quantile_level(std::size_t n, double q) {
  if (n == 0) return q;
  const double cap = 1.0 - 10.0 / static_cast<double>(n);
  return std::max(0.5, std::min(q, cap));
}

/// hits / (hits + misses), 0 when nothing was looked up.
double hit_ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

double counter(const fxpar::metrics::Snapshot& s, const std::string& name) {
  return static_cast<double>(s.counter(name));
}

double hist_sum(const fxpar::metrics::Snapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

}  // namespace

ItemStats item_stats(const std::vector<std::int64_t>& entry, const std::vector<std::int64_t>& done,
                     std::int64_t start) {
  ItemStats st;
  st.items = entry.size();
  if (st.items == 0) return st;
  st.latency_ms.resize(st.items);
  for (std::size_t i = 0; i < st.items; ++i) st.latency_ms[i] = ns_to_ms(done[i] - entry[i]);
  st.tail_level = tail_quantile_level(st.items, 0.95);
  st.items_per_s =
      static_cast<double>(st.items) / ns_to_s(*std::max_element(done.begin(), done.end()) - start);
  st.p50_ms = quantile(st.latency_ms, 0.5);
  st.p95_ms = quantile(st.latency_ms, st.tail_level);
  return st;
}

ItemStats segment_stats(const std::vector<ItemStats>& segments) {
  ItemStats m;
  std::vector<double> rate, p50, p95, level;
  for (const ItemStats& s : segments) {
    rate.push_back(s.items_per_s);
    p50.push_back(s.p50_ms);
    p95.push_back(s.p95_ms);
    level.push_back(s.tail_level);
    m.items += s.items;
    m.latency_ms.insert(m.latency_ms.end(), s.latency_ms.begin(), s.latency_ms.end());
  }
  m.items_per_s = iq_mean(rate);
  m.p50_ms = iq_mean(p50);
  m.p95_ms = iq_mean(p95);
  m.tail_level = level.empty() ? 0.95 : *std::min_element(level.begin(), level.end());
  if (m.tail_level < 0.95) {
    m.tail_level = tail_quantile_level(m.latency_ms.size(), 0.95);
    m.p95_ms = quantile(m.latency_ms, m.tail_level);
  }
  return m;
}

Rusage rusage_now() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  Rusage r;
  r.minor_faults = self.ru_minflt + kids.ru_minflt;
  r.max_rss_kb = self.ru_maxrss;
  r.child_max_rss_kb = kids.ru_maxrss;
  return r;
}

void accumulate(fxpar::metrics::Snapshot& total, const fxpar::metrics::Snapshot& s) {
  for (const auto& [name, v] : s.counters) total.counters[name] += v;
  for (const auto& [name, h] : s.histograms) {
    auto& t = total.histograms[name];
    t.count += h.count;
    t.sum += h.sum;
  }
}

void Segments::report(Outcome& out, const std::string& workload,
                      const std::string& detail) const {
  const ItemStats st = segment_stats(stats);
  const Rusage ru = rusage_now();
  out.metrics = {
      {"items_per_s", st.items_per_s, "1/s"},
      {"latency_p50_ms", st.p50_ms, "ms"},
      {"setup_s", iq_mean(setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(ru.max_rss_kb + ru.child_max_rss_kb) / 1024.0, "MB"},
  };
  std::vector<double> rate;
  for (const ItemStats& s : stats) rate.push_back(s.items_per_s);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s: %zu segments, %zu timed items; segment items_per_s min %.4g iq_mean %.4g "
                "max %.4g; %s",
                workload.c_str(), stats.size(), st.items,
                *std::min_element(rate.begin(), rate.end()), st.items_per_s,
                *std::max_element(rate.begin(), rate.end()), detail.c_str());
  out.notes.push_back(buf);
  // Not in the result line: with every vCPU busy, the tail tracks the
  // hypervisor's steal time more than the program (see README.md).
  std::snprintf(buf, sizeof buf, "latency_p95_ms %.6f ms (p%.1f; not in the result line)",
                st.p95_ms, st.tail_level * 100);
  out.notes.push_back(buf);
}

void Segments::add_machine_layers(Outcome& out, int workers) const {
  auto& m = out.metrics;
  if (host_ms > 0) m.push_back({"exec.blocked_frac", wait_ms / (workers * host_ms), "ratio"});
  m.push_back({"machine.construct_ms", median(construct_ms), "ms"});
  m.push_back({"machine.first_item_ms", median(first_item_ms), "ms"});
  m.push_back({"machine.minor_faults_per_item",
               static_cast<double>(minor_faults) / static_cast<double>(items), "count"});
}

Segments run_segments(double seconds, const std::function<Segment(int)>& segment,
                      std::size_t min_items) {
  Segments s;
  const std::int64_t t0 = now_ns();
  int i = 0;
  std::size_t timed = 0;
  do {
    const Segment g = segment(i++);
    s.stats.push_back(g.stats);
    s.setup_s.push_back(g.setup_s);
    s.construct_ms.push_back(g.construct_ms);
    s.first_item_ms.push_back(g.first_item_ms);
    accumulate(s.registry, g.registry);
    s.wait_ms += g.wait_ms;
    s.host_ms += g.host_ms;
    s.minor_faults += g.minor_faults;
    s.items += g.items;
    timed += g.stats.items;
  } while (ns_to_s(now_ns() - t0) < seconds || timed < min_items);
  return s;
}

void add_registry_layers(Outcome& out, const fxpar::metrics::Snapshot& totals, double items,
                         double computed_bytes_per_item, bool host_clock) {
  const auto per = [items](double x) { return items > 0 ? x / items : 0.0; };
  const double redist_s = hist_sum(totals, "fxpar_dist_redistribute_seconds");
  const double plan_hits = counter(totals, "fxpar_dist_plan_cache_hits_total");
  const double plan_misses = counter(totals, "fxpar_dist_plan_cache_misses_total");
  const double coll_hits = counter(totals, "fxpar_comm_collective_plan_hits_total");
  const double coll_misses = counter(totals, "fxpar_comm_collective_plan_misses_total");
  auto& m = out.metrics;
  if (host_clock) {
    m.push_back({"dist.redistribute_ms_per_item", per(redist_s) * 1e3, "ms"});
    m.push_back({"dist.redistribute_gbps",
                 redist_s > 0 ? computed_bytes_per_item / per(redist_s) * 1e-9 : 0.0, "GB/s"});
    m.push_back(
        {"dist.halo_ms_per_item", per(hist_sum(totals, "fxpar_dist_halo_seconds")) * 1e3, "ms"});
    m.push_back({"comm.recv_wait_ms_per_item",
                 per(hist_sum(totals, "fxpar_comm_recv_wait_seconds")) * 1e3, "ms"});
    m.push_back({"exec.barrier_wait_ms_per_item",
                 per(hist_sum(totals, "fxpar_sync_barrier_wait_seconds")) * 1e3, "ms"});
  } else {
    out.notes.push_back(
        "registry latency histograms hold modeled seconds on the simulator: host-time "
        "redistribute/halo/recv-wait/barrier-wait metrics are not measured here");
  }
  m.push_back({"dist.plan_hit_ratio", hit_ratio(plan_hits, plan_misses), "ratio"});
  m.push_back({"dist.plan_lookups_per_item", per(plan_hits + plan_misses), "count"});
  m.push_back({"comm.messages_per_item", per(counter(totals, "fxpar_comm_messages_total")), "count"});
  m.push_back({"comm.bytes_per_item", per(counter(totals, "fxpar_comm_message_bytes_total")), "B"});
  m.push_back({"comm.collective_plan_hit_ratio", hit_ratio(coll_hits, coll_misses), "ratio"});
  m.push_back({"comm.collective_plan_lookups_per_item", per(coll_hits + coll_misses), "count"});
  m.push_back({"exec.barriers_per_item", per(counter(totals, "fxpar_sync_barriers_total")), "count"});
  m.push_back({"core.task_regions_per_item", per(counter(totals, "fxpar_core_task_regions_total")),
               "count"});
  m.push_back({"machine.pool_spills_per_item",
               per(counter(totals, "fxpar_machine_pool_spills_total")), "count"});
}

int SpanLog::add(Span s) {
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv, std::int64_t lo,
                        std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, cur);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      cur = b;
    }
  }
  return total;
}

std::map<std::string, double> SpanLog::self_ms() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t dur = s.t1 - s.t0;
    self[s.name] += ns_to_ms(dur - covered_ns(kids[i], s.t0, s.t1));
  }
  return self;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write " + path);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.rank + 1 << ",\"ts\":" << static_cast<double>(s.t0 - base) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.t1 - s.t0) * 1e-3 << ",\"args\":{\"item\":" << s.item
       << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n],\"selfTimeMs\":{";
  bool first = true;
  for (const auto& [name, ms] : self_ms()) {
    os << (first ? "" : ",") << "\"" << name << "\":" << ms;
    first = false;
  }
  os << "}}\n";
}

void host_parallel_for(std::size_t n, int threads, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

PinToCpus::PinToCpus(int index, int count) {
  if (count <= 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  std::vector<int> allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) allowed.push_back(cpu);
  }
  const int n = static_cast<int>(allowed.size());
  cpu_set_t some;
  CPU_ZERO(&some);
  for (int k = 0; k < std::min(count, n); ++k) {
    CPU_SET(allowed[static_cast<std::size_t>((index + k) % n)], &some);
  }
  pinned_ = sched_setaffinity(0, sizeof some, &some) == 0;
}

PinToCpus::~PinToCpus() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

std::string output_stem(const Options& opt) {
  for (const char* dir : {".bench_build", ".bench_build/out"}) {
    if (::mkdir(dir, 0755) != 0 && errno != EEXIST) {
      throw std::runtime_error(std::string("cannot create directory ") + dir);
    }
  }
  return ".bench_build/out/" + opt.workload + ".seed" + std::to_string(opt.seed);
}

}  // namespace perfbench
