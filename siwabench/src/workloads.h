// The four workloads. Each one runs in its own process:
//
//   1. set-up: generate the seeded inputs, write corpus files, open
//      sessions, warm up. It is repeated kSetups times in all, the other
//      times between rounds of the timed run (see Setups);
//   2. the checked pass (untimed): every input once through the product
//      call, every output checked against an independent reference, the
//      outputs' digests kept as the timed loop's expected answers; then
//      peak-memory measurement starts (PeakMemory);
//   3. the timed run: a closed loop with one client for `seconds`, every
//      output compared with its checked answer. With `trace`, the first
//      half runs untraced (for the overhead ratio) and the second half
//      runs the layer decomposition, compared with the product answers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace siwabench {

constexpr int kSetups = 32;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;   // scratch directory for corpus files (farm)
  std::string farm_bin;  // siwa_farm binary for the farm's workers
  // Self-test hook: replace one input with a malformed one (a truncated
  // program, an unparseable request line, a corrupt graph file), which
  // every run must then count as failed.
  bool inject_malformed = false;
};

struct Report {
  bool correct = true;  // every check passed (failures also in rec.failed)
  Recorder rec;         // the untraced timed run
  std::vector<double> setup_s;
  double certified_free_share = 0;
  PeakMemory memory;                 // of the untraced timed run
  std::size_t rss_children = 0;      // worker processes to count in RSS
  Trace trace;                       // traced run sums (trace mode only)
  double traced_ops = 0;             // operations in the traced half
  double traced_ops_per_s = 0;
  std::vector<Metric> properties;    // input properties
  std::vector<std::string> notes;    // human-readable check summaries
};

[[nodiscard]] Report run_corpus(const RunConfig& config);
[[nodiscard]] Report run_deep(const RunConfig& config);
[[nodiscard]] Report run_lintd(const RunConfig& config);
[[nodiscard]] Report run_farm_workload(const RunConfig& config);

}  // namespace siwabench
