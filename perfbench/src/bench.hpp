#pragma once
// The pipeline benchmark's runner interface: four named closed-loop
// workloads (one caller; each operation is issued only after the previous
// one returned and passed its oracle), the per-layer probes a traced run
// adds, and the result record main.cpp prints. See perfbench/README.md for
// the workload rationale and the layer -> end-to-end metric map.

#include <cstdint>
#include <string>
#include <vector>

namespace sfcbench {

/// Problem sizes of every workload. `full` is the benchmark; `tiny` is the
/// smoke configuration (Ne = 4/8) that proves every metric is printed.
struct sizes {
  int cold_ne = 16;           ///< cold-plan mesh (K = 1536, the paper's size)
  int cold_parts = 384;
  int repart_ne = 96;         ///< repartition and rank-loss mesh (K = 55,296)
  int repart_min_parts = 24;  ///< nparts range, divisors of K only
  int repart_max_parts = 6912;
  int seam_ne = 16;           ///< seam-advect mesh (K = 1536, the paper's size)
  int seam_np = 8;
  int seam_parts = 4;
  int seam_steps = 10;
  int loss_parts = 96;
};
sizes full_sizes();
sizes tiny_sizes();

/// Virtual ranks every distributed operation runs on.
inline constexpr int kRanks = 4;

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  sizes size;
  std::string trace_path;  ///< Chrome-trace JSON written by a traced run
};

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct run_result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;         ///< oracle rejections and exceptions
  std::vector<double> setup_s;     ///< one sample per repeated set-up
  std::vector<double> op_ms;       ///< passing ops of the untraced loop
  std::vector<double> traced_op_ms;  ///< passing ops of the traced loop
  double work_per_op = 0;          ///< elements (element-steps) per op
  std::int64_t num_elements = 0;   ///< K of the workload's mesh
  std::vector<metric> per_layer;   ///< traced runs only
  std::vector<metric> facts;       ///< deterministic extras (edgecut, ...)
};

/// Set up, run the closed loop for cfg.seconds (split evenly between an
/// untraced and a traced half when cfg.trace), and in a traced run probe
/// every layer and export the spans. Throws on an unknown workload.
run_result run_workload(const run_config& cfg);

/// Corrupt one label of a known-good plan (and one value of a known-good
/// field) and check that each oracle rejects the copy and accepts the
/// original. Returns false with a reason otherwise.
bool oracle_self_test(std::string* why);

/// Median and the q-quantile (linear interpolation) of unsorted samples.
double quantile(std::vector<double> v, double q);

}  // namespace sfcbench
