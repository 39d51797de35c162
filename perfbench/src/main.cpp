// perfbench: host-time benchmark of fxpar.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload, checks every item against the sequential reference,
// prints each metric by name and unit, and ends with one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones.
// Exits 1 when any item fails, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <span>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

struct Declared {
  const char* name;
  const char* unit;
};

constexpr Declared kEndToEnd[] = {
    {"items_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric, named after the src/<module>/ it measures. A
// metric a workload does not measure (a layer it never enters, or a host
// time the simulator only models) is reported as 0 and listed as such.
constexpr Declared kPerLayer[] = {
    {"apps.stage.cffts.ms_per_item", "ms"},
    {"apps.stage.rffts.ms_per_item", "ms"},
    {"apps.stage.hist.ms_per_item", "ms"},
    {"apps.stage.acquire.ms_per_item", "ms"},
    {"apps.stage.ssd.ms_per_item", "ms"},
    {"apps.stage.err.ms_per_item", "ms"},
    {"apps.stage.depth.ms_per_item", "ms"},
    {"apps.fft.gflops", "GFLOP/s"},
    {"apps.seq_ref_ms_per_item", "ms"},
    {"apps.parallel_efficiency", "ratio"},
    {"dist.redistribute_ms_per_item", "ms"},
    {"dist.redistribute_gbps", "GB/s"},
    {"dist.halo_ms_per_item", "ms"},
    {"dist.plan_hit_ratio", "ratio"},
    {"dist.plan_lookups_per_item", "count"},
    {"comm.messages_per_item", "count"},
    {"comm.bytes_per_item", "B"},
    {"comm.recv_wait_ms_per_item", "ms"},
    {"comm.collective_plan_hit_ratio", "ratio"},
    {"comm.collective_plan_lookups_per_item", "count"},
    {"exec.barriers_per_item", "count"},
    {"exec.barrier_wait_ms_per_item", "ms"},
    {"exec.blocked_frac", "ratio"},
    {"machine.construct_ms", "ms"},
    {"machine.first_item_ms", "ms"},
    {"machine.minor_faults_per_item", "count"},
    {"machine.pool_spills_per_item", "count"},
    {"core.task_regions_per_item", "count"},
    {"sched.plan_ms", "ms"},
    {"serve.remaps", "count"},
    {"serve.shed", "count"},
    {"serve.model_p95_s", "s"},
    {"runtime.sim_events_per_s", "1/s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.span_coverage", "ratio"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads: ffthist_pipe_threads stereo_rep_proc "
               "qsort_nested_threads serve_fig5_sim\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end) usage("--seed must be a non-negative integer");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(o.seconds > 0 && o.seconds <= 600)) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

Outcome dispatch(const Options& o) {
  if (o.workload == "ffthist_pipe_threads") return perfbench::run_ffthist_pipe_threads(o);
  if (o.workload == "stereo_rep_proc") return perfbench::run_stereo_rep_proc(o);
  if (o.workload == "qsort_nested_threads") return perfbench::run_qsort_nested_threads(o);
  if (o.workload == "serve_fig5_sim") return perfbench::run_serve_fig5_sim(o);
  usage(("unknown workload " + o.workload).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Outcome out;
  try {
    out = dispatch(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  // Lay the workload's metrics over the declared set: every declared name
  // once, in declaration order; an undeclared name is a benchmark bug.
  std::map<std::string, Metric> got;
  for (const Metric& m : out.metrics) got[m.name] = m;
  bool correct = out.failed == 0 && out.attempted > 0;
  std::vector<Metric> report;
  std::set<std::string> declared;
  std::string unexercised;
  for (const Declared& d : opt.trace ? std::span<const Declared>(kPerLayer)
                                     : std::span<const Declared>(kEndToEnd)) {
    declared.insert(d.name);
    auto it = got.find(d.name);
    Metric m{d.name, 0.0, d.unit};
    if (it != got.end()) {
      m.value = it->second.value;
    } else if (opt.trace) {
      unexercised += std::string(" ") + d.name;
    } else {
      std::fprintf(stderr, "perfbench: end-to-end metric %s missing\n", d.name);
      correct = false;
    }
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", d.name);
      m.value = 0.0;
      correct = false;
    }
    report.push_back(m);
  }
  for (const Metric& m : out.metrics) {
    if (!declared.count(m.name)) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", m.name.c_str());
      correct = false;
    }
  }

  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  if (!unexercised.empty()) {
    std::printf("# not measured on this workload (reported as 0):%s\n", unexercised.c_str());
  }
  std::printf("# items_attempted %ld  items_failed %ld\n", out.attempted, out.failed);
  for (const Metric& m : report) {
    std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < report.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                report[i].name.c_str(), report[i].value, report[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
