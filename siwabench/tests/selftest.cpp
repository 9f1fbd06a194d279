// siwabench_selftest: the harness's own tests.
//
//   percentile rule    tail_percentile picks the highest percentile (<= 99)
//                      with at least ten samples beyond it, for every
//                      sample count up to 5000;
//   fastest            every timed unit keeps its fastest repetitions,
//   repetitions        whichever rounds they fall in, and the rounds' time
//                      outside samples is one more unit;
//   failure accounting a malformed program, request or job injected into
//                      each workload is counted as failed (attempted
//                      includes it, correct is false), never dropped;
//   seed determinism   every input generator returns identical inputs for
//                      one seed and different inputs for another.
//
//   siwabench_selftest FARM_BIN WORKDIR
//
// Run through `python3 siwabench/run.py --selftest`, which passes the
// siwa_farm binary and a scratch directory; exit code 0 when every check
// passes.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "workloads.h"

namespace {

using namespace siwabench;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// Samples strictly above the nearest-rank percentile p of n samples.
std::size_t beyond(std::size_t n, int p) {
  const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
  return n - rank;
}

void percentile_rule() {
  bool all = true;
  for (std::size_t n = 11; n <= 5000; ++n) {
    const int p = tail_percentile(n);
    const bool highest = p == 99 || beyond(n, p + 1) < 10;
    if (p < 1 || p > 99 || beyond(n, p) < 10 || !highest) {
      std::printf("  n=%zu gives p%d (%zu beyond)\n", n, p, beyond(n, p));
      all = false;
    }
  }
  check(all, "tail percentile leaves >= 10 samples beyond it, n = 11..5000");
  check(tail_percentile(1000) == 99 && tail_percentile(999) == 98 &&
            tail_percentile(200) == 95 && tail_percentile(10) == 0,
        "tail percentile: p99 needs 1000 samples (999 -> p98, 200 -> p95)");
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  check(nearest_rank(sorted, 99) == 990 && nearest_rank(sorted, 50) == 500,
        "nearest rank of 1..1000: p50 = 500, p99 = 990");
}

bool near(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::abs(got[i] - want[i]) > 1e-9) return false;
  return true;
}

void fastest_repetitions() {
  // 8 rounds of three units (1, 2 and 4 ms) and 1 ms outside samples.
  // Round r slows unit r % 3 tenfold; round 7 is slow throughout.
  Recorder rec;
  for (std::size_t r = 0; r < 8; ++r) {
    Recorder::Round round;
    round.first = rec.latency_ms.size();
    const double before = rec.busy_s;
    const double slow = r == 7 ? 2 : 1;
    for (std::size_t op = 0; op < 3; ++op)
      rec.sample(static_cast<double>(1u << op) * (op == r % 3 ? 10 : 1) *
                 slow / 1e3);
    rec.busy_s += slow / 1e3;
    round.busy_s = rec.busy_s - before;
    round.samples = 3;
    round.ops = 3;
    rec.rounds.push_back(round);
  }
  // Six tail samples over three units: the two fastest of each.
  const Recorder::Kept kept = rec.fastest(6);
  check(kept.rounds == 8 && near(kept.best_ms, {1, 2, 4}),
        "fastest repetitions: each unit at its fastest of 8");
  check(kept.round_ops == 3 && std::abs(kept.round_s - 0.008) < 1e-12,
        "fastest repetitions: a round is 1 + 2 + 4 ms and 1 ms outside "
        "samples");
  check(kept.per_op == 2 && near(kept.tail_ms, {1, 1, 2, 2, 4, 4}),
        "fastest repetitions: the tail keeps the 2 fastest of each");
  check(rec.fastest(100).per_op == 8,
        "fastest repetitions: the tail keeps at most every repetition");
}

template <typename T, typename Same>
void determinism(const char* name, T (*generate)(std::uint64_t), Same same) {
  const T a = generate(7), b = generate(7), c = generate(8);
  check(same(a, b), std::string(name) + ": same seed, identical inputs");
  check(!same(a, c), std::string(name) + ": other seed, different inputs");
}

bool same_programs(const std::vector<ProgramInput>& a,
                   const std::vector<ProgramInput>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].name != b[i].name || a[i].text != b[i].text) return false;
  return true;
}

void seed_determinism() {
  determinism("corpus", corpus_inputs, same_programs);
  determinism("deep", deep_inputs, same_programs);
  determinism("lintd", lintd_inputs,
              [](const LintdInputs& a, const LintdInputs& b) {
                if (!same_programs(a.sessions, b.sessions) ||
                    a.block.size() != b.block.size())
                  return false;
                for (std::size_t i = 0; i < a.block.size(); ++i)
                  if (a.block[i].kind != b.block[i].kind ||
                      a.block[i].format != b.block[i].format)
                    return false;
                return true;
              });
  determinism("farm", farm_inputs,
              [](const std::vector<FarmFile>& a, const std::vector<FarmFile>& b) {
                if (a.size() != b.size()) return false;
                for (std::size_t i = 0; i < a.size(); ++i)
                  if (a[i].name != b[i].name || a[i].text != b[i].text)
                    return false;
                return true;
              });
  check(apply_edit(apply_edit("x \"edit cursor 9\";", RequestKind::Docstring),
                   RequestKind::Docstring) == "x \"edit cursor 1\";",
        "lintd docstring edits advance the cursor modulo 10");
}

void failure_accounting(const char* name, Report (*run)(const RunConfig&),
                        const std::string& farm_bin,
                        const std::string& workdir) {
  RunConfig config;
  config.seed = 3;
  config.seconds = 1;
  config.inject_malformed = true;
  config.workdir = workdir;
  config.farm_bin = farm_bin;
  const Report r = run(config);
  check(!r.correct && r.rec.failed >= 1 && r.rec.attempted > r.rec.failed,
        std::string(name) + ": injected malformed input counted as failed (" +
            std::to_string(r.rec.failed) + " of " +
            std::to_string(r.rec.attempted) + ")");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: siwabench_selftest FARM_BIN WORKDIR\n");
    return 2;
  }
  percentile_rule();
  fastest_repetitions();
  seed_determinism();
  failure_accounting("corpus", run_corpus, argv[1], argv[2]);
  failure_accounting("deep", run_deep, argv[1], argv[2]);
  failure_accounting("lintd", run_lintd, argv[1], argv[2]);
  failure_accounting("farm", run_farm_workload, argv[1], argv[2]);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "all checks passed" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
