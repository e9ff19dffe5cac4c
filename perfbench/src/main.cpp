// sfcbench — the pipeline benchmark's binary.
//
//   sfcbench --workload NAME --seed N --seconds S --trace 0|1
//            [--size full|tiny] [--trace-out FILE]
//
// Runs one workload in a closed loop for S seconds, checks every op against
// its oracle, prints a human-readable report, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). perfbench/run.py builds and invokes it.

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SFCBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define SFCBENCH_SANITIZED 1
#endif
#endif

namespace {

using sfcbench::metric;

#ifdef SFCPART_AUDIT
constexpr bool kAudit = true;
#else
constexpr bool kAudit = false;
#endif

bool sanitized_build() {
#ifdef SFCBENCH_SANITIZED
  return true;
#else
  return std::string(SFCBENCH_CXX_FLAGS).find("-fsanitize") !=
         std::string::npos;
#endif
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: sfcbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|tiny] [--trace-out FILE]\n",
               msg);
  return 2;
}

/// VmHWM, the high-water mark of this process image. Not ru_maxrss: that
/// carries over the parent's peak across fork and exec, so under run.py it
/// read Python's footprint whenever that was the larger. NaN if unreadable,
/// which the finiteness check below turns into a failed run.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return std::nan("");
}

void print_metric(const metric& m) {
  std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  sfcbench::run_config cfg;
  cfg.size = sfcbench::full_sizes();
  std::string size_name = "full";
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage(("missing value for " + key).c_str());
    }
    try {
      if (key == "--workload") cfg.workload = value;
      else if (key == "--seed") cfg.seed = std::stoull(value);
      else if (key == "--seconds") cfg.seconds = std::stod(value);
      else if (key == "--trace") cfg.trace = std::stoi(value) != 0;
      else if (key == "--size") size_name = value;
      else if (key == "--trace-out") cfg.trace_path = value;
      else return usage(("unknown option " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (size_name == "tiny") cfg.size = sfcbench::tiny_sizes();
  else if (size_name != "full") return usage("--size must be full or tiny");
  if (cfg.workload.empty()) return usage("--workload is required");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  if (cfg.trace_path.empty())
    cfg.trace_path = "trace-" + cfg.workload + ".json";

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "provenance: workload=%s size=%s seed=%llu seconds=%g trace=%d "
      "nproc=%u ranks=%d build_type=%s compiler=\"%s\" SFCPART_OBS=%s "
      "SFCPART_AUDIT=%s sanitizer=%s loop=closed,1-caller\n",
      cfg.workload.c_str(), size_name.c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.seconds,
      cfg.trace ? 1 : 0, nproc, sfcbench::kRanks, SFCBENCH_BUILD_TYPE,
      __VERSION__, SFCBENCH_OBS ? "ON" : "OFF", kAudit ? "ON" : "OFF",
      sanitized_build() ? "yes" : "no");
  if (kAudit || sanitized_build()) {
    std::fprintf(stderr,
                 "refusing to report timings from an audit or sanitizer "
                 "build\n");
    return 3;
  }

  std::string why;
  const bool oracle_ok = sfcbench::oracle_self_test(&why);
  if (!oracle_ok)
    std::fprintf(stderr, "oracle self-test failed: %s\n", why.c_str());

  sfcbench::run_result res;
  try {
    res = sfcbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
  if (res.op_ms.empty()) {
    std::fprintf(stderr, "no op passed its oracle\n");
    return 1;
  }

  const std::size_t n = res.op_ms.size();
  const double total_ms =
      std::accumulate(res.op_ms.begin(), res.op_ms.end(), 0.0);
  const bool steps = cfg.workload == "seam-advect";
  const std::vector<metric> e2e = {
      {"setup_s", sfcbench::quantile(res.setup_s, 0.5), "s"},
      {"op_p50_ms", sfcbench::quantile(res.op_ms, 0.5), "ms"},
      {"elements_per_s",
       res.work_per_op * static_cast<double>(n) / (total_ms / 1e3), "elem/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  std::printf("\nworkload %s: K=%lld, %zu passing untraced ops, %zu set-ups\n",
              cfg.workload.c_str(), static_cast<long long>(res.num_elements),
              n, res.setup_s.size());
  for (const metric& m : e2e)
    print_metric(steps && m.name == "elements_per_s"
                     ? metric{"elem_steps_per_s", m.value, "elem-step/s"}
                     : m);
  // The highest percentile with at least ten samples beyond it.
  if (n >= 200)
    print_metric({"op_p95_ms", sfcbench::quantile(res.op_ms, 0.95), "ms"});
  else
    std::printf("  %-32s %18s (n=%zu < 200)\n", "op_p95_ms", "n/a", n);
  print_metric({"error_rate",
                static_cast<double>(res.failed) /
                    static_cast<double>(res.attempted),
                "ratio"});
  for (const metric& m : res.facts) print_metric(m);
  if (cfg.trace) {
    std::printf("\nper-layer (traced run, %zu traced ops; spans in %s)\n",
                res.traced_op_ms.size(), cfg.trace_path.c_str());
    for (const metric& m : res.per_layer) print_metric(m);
  }

  const std::vector<metric>& out = cfg.trace ? res.per_layer : e2e;
  for (const metric& m : out) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              oracle_ok && res.failed == 0 ? "true" : "false",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed));
  for (std::size_t i = 0; i < out.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  std::printf("}}\n");
  return 0;
}
