// siwabench: the SIWA end-to-end benchmark program.
//
//   siwabench --workload corpus|deep|lintd|farm --seed N --seconds S
//             --trace 0|1 [--workdir DIR --farm-bin PATH]
//
// farm needs --workdir (where its corpus files go) and --farm-bin (the
// siwa_farm binary its workers run); run.py passes both.
//
// Prints a human-readable summary (every end-to-end metric with its unit,
// failed_share, sample counts, input properties and check results), then,
// as the last stdout line, one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. Exit code 0 when every check passed, 1 when any failed,
// 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "workloads.h"

namespace {

using namespace siwabench;

int usage() {
  std::fprintf(stderr,
               "usage: siwabench --workload corpus|deep|lintd|farm --seed N "
               "--seconds S --trace 0|1 [--workdir DIR --farm-bin PATH]\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

// Every per-layer metric, in BENCHMARK.json order. A layer that does not
// run on a workload reports 0.
struct LayerSpec {
  const char* name;
  const char* unit;
};
constexpr LayerSpec kPerOp[] = {
    {"lang.parse_us", "us"},           {"lang.sema_us", "us"},
    {"transform.unroll_us", "us"},     {"syncgraph.build_us", "us"},
    {"syncgraph.nodes", "count"},      {"syncgraph.clg_us", "us"},
    {"syncgraph.clg_nodes", "count"},  {"syncgraph.clg_edges", "count"},
    {"syncgraph.deserialize_us", "us"}, {"graph.closure_us", "us"},
    {"graph.dominators_us", "us"},     {"graph.has_cycle_us", "us"},
    {"graph.closure_constructions", "count"},
    {"dataflow.fixpoint_us", "us"},    {"dataflow.iterations", "count"},
    {"dataflow.infeasible_nodes", "count"},
    {"core.precedence_us", "us"},      {"core.coexec_us", "us"},
    {"core.enumerate_us", "us"},       {"core.sweep_us", "us"},
    {"core.hypotheses", "count"},      {"core.tested", "count"},
    {"core.scratch_bytes", "bytes"},   {"lint.balance_us", "us"},
    {"lint.rules_us", "us"},           {"lint.certify_us", "us"},
    {"lint.render_us", "us"},          {"lint.render_bytes", "bytes"},
    {"lint.diagnostics", "count"},     {"farm.read_us", "us"},
    {"farm.job_us", "us"},             {"farm.protocol_us", "us"},
    {"farm.ipc_us", "us"},             {"farm.deaths", "count"},
    {"farm.retries", "count"},         {"farm.steals", "count"},
    {"obs.job_sink_us", "us"},
};
constexpr const char* kServerKinds[] = {
    "server.open", "server.edit_comment", "server.edit_guard",
    "server.edit_structural", "server.diagnostics"};
constexpr LayerSpec kInputs[] = {
    {"input.programs", "count"},           {"input.sessions", "count"},
    {"input.jobs", "count"},               {"input.manifest_jobs", "count"},
    {"input.workers", "count"},            {"input.loops_share", "ratio"},
    {"input.shared_conditions_share", "ratio"},
    {"input.certified_free_share", "ratio"},
    {"input.sync_nodes", "count"},         {"input.clg_nodes", "count"},
    {"input.edit_comment_share", "ratio"}, {"input.edit_guard_share", "ratio"},
    {"input.edit_structural_share", "ratio"},
    {"input.diagnostics_share", "ratio"},  {"input.sg_share", "ratio"},
    {"input.mada_share", "ratio"},         {"input.nproc", "count"},
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> layer_metrics(const Report& r) {
  const Trace& t = r.trace;
  const double ops = r.traced_ops;
  std::vector<Metric> out;
  for (const LayerSpec& s : kPerOp)
    out.push_back({s.name, s.unit, ratio(t.sum(s.name), ops)});
  out.push_back({"lang.parse_mb_per_s", "MB/s",
                 ratio(t.sum("lang.parse_bytes"), t.sum("lang.parse_us"))});
  out.push_back({"core.tested_share", "ratio",
                 ratio(t.sum("core.tested"), t.sum("core.hypotheses"))});
  out.push_back({"lint.context_reuse_share", "ratio",
                 ratio(t.sum("lint.cache.context_reuses"),
                       t.sum("lint.cache.context_lookups"))});
  out.push_back({"lint.certify_hit_share", "ratio",
                 ratio(t.sum("lint.cache.certify_hits"),
                       t.sum("lint.cache.certify_lookups"))});
  // Server metrics are means per request of each kind.
  double requests = 0;
  for (const char* kind : kServerKinds) {
    const std::string base = kind;
    out.push_back({base + "_us", "us",
                   ratio(t.sum(base + "_us"), t.sum(base + "_n"))});
    requests += t.sum(base + "_n");
  }
  out.push_back({"server.response_bytes", "bytes",
                 ratio(t.sum("server.response_bytes"), requests)});
  const double untraced = r.rec.ops_per_s();
  out.push_back({"trace.ops_per_s", "ops/s", r.traced_ops_per_s});
  out.push_back({"trace.untraced_ops_per_s", "ops/s", untraced});
  out.push_back({"trace.ops_ratio", "ratio", ratio(r.traced_ops_per_s, untraced)});
  for (const LayerSpec& s : kInputs) {
    double value = 0;
    for (const Metric& p : r.properties)
      if (p.name == s.name) value = p.value;
    out.push_back({s.name, s.unit, value});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // glibc raises its mmap threshold the first time a large block is freed,
  // after which large buffers come from the heap instead. When that
  // happens depends on timing, and peak_rss_mb differed by 25% between the
  // two regimes within one corpus run. Fixing the threshold at glibc's
  // start-up value keeps every run in the regime a fresh CLI process
  // starts in.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  std::string workload;
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed" && parse_u64(value, &n)) {
      config.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(value, &n) && n > 0) {
      config.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && parse_u64(value, &n) && n <= 1) {
      config.trace = n == 1;
      have_trace = true;
    } else if (arg == "--workdir") {
      config.workdir = value;
    } else if (arg == "--farm-bin") {
      config.farm_bin = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  Report report;
  if (workload == "corpus") report = run_corpus(config);
  else if (workload == "deep") report = run_deep(config);
  else if (workload == "lintd") report = run_lintd(config);
  else if (workload == "farm" && !config.workdir.empty() &&
           !config.farm_bin.empty())
    report = run_farm_workload(config);
  else return usage();

  const unsigned nproc = std::thread::hardware_concurrency();
  report.properties.push_back({"input.nproc", "count", static_cast<double>(nproc)});
  const Recorder& rec = report.rec;
  const Recorder::Kept kept = rec.fastest();
  const int tail = tail_percentile(kept.tail_ms.size());
  // setup_s: the median of the fastest quarter of the set-up repetitions.
  std::vector<double> fastest_setups = report.setup_s;
  std::sort(fastest_setups.begin(), fastest_setups.end());
  fastest_setups.resize((fastest_setups.size() + 3) / 4);
  const double setup = median(fastest_setups);
  const std::vector<Metric> end_to_end = {
      {"setup_s", "s", setup},
      {"ops_per_s", "ops/s",
       ratio(static_cast<double>(kept.round_ops), kept.round_s)},
      {"p50_ms", "ms",
       kept.best_ms.empty() ? 0 : nearest_rank(kept.best_ms, 50)},
      {"p99_ms", "ms", tail > 0 ? nearest_rank(kept.tail_ms, tail) : 0},
      {"certified_free_share", "ratio", report.certified_free_share},
      {"peak_rss_mb", "MiB", report.memory.mb(report.rss_children)},
  };

  std::printf("siwabench %s: seed %llu, %g s, trace %d, nproc %u\n",
              workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, nproc);
  for (const Metric& m : end_to_end)
    std::printf("  %-22s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-22s %.6g ratio (%llu of %llu operations failed)\n",
              "failed_share", ratio(static_cast<double>(rec.failed),
                                    static_cast<double>(rec.attempted)),
              static_cast<unsigned long long>(rec.failed),
              static_cast<unsigned long long>(rec.attempted));
  std::printf("  rounds: %zu (all rounds: %.6g ops/s); ops_per_s and p50_ms "
              "take each of the %zu timed units of a round at its fastest "
              "repetition\n",
              kept.rounds, rec.ops_per_s(), kept.best_ms.size());
  std::printf("  p99_ms is the p%d of the %zu fastest repetitions of each "
              "unit (%zu samples; the highest percentile with >= 10 "
              "samples beyond it)\n",
              tail, kept.per_op, kept.tail_ms.size());
  std::printf("  peak_rss_mb: %s\n",
              report.memory.started()
                  ? "the timed run's, set-up repetitions left out"
                  : "the process's lifetime peak (the high-water mark "
                    "could not be reset)");
  std::printf("  setup runs (s), the first before the checked pass:");
  for (double s : report.setup_s) std::printf(" %.4f", s);
  std::printf("\n  input properties:");
  for (const Metric& p : report.properties)
    std::printf(" %s=%.4g", p.name.c_str(), p.value);
  std::printf("\n");
  for (const std::string& note : report.notes)
    std::printf("  %s\n", note.c_str());
  if (config.trace)
    std::printf("  tracing overhead: traced %.6g ops/s vs untraced %.6g "
                "ops/s\n",
                report.traced_ops_per_s, rec.ops_per_s());

  const bool correct = report.correct && rec.failed == 0 && rec.ops > 0;
  std::printf("%s\n",
              result_line(correct, std::max<std::uint64_t>(rec.attempted, 1),
                          rec.failed,
                          config.trace ? layer_metrics(report) : end_to_end)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
