// Measurement plumbing shared by every workload: the seeded generator,
// latency recording with the tail-percentile rule, failure accounting,
// the layer trace, peak-RSS readout and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace siwabench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

// splitmix64: the only source of randomness in the benchmark, so the same
// seed yields byte-identical inputs on every machine and library build.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in [lo, hi] (inclusive).
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i)
      std::swap(items[i - 1], items[range(0, i - 1)]);
  }

 private:
  std::uint64_t state_;
};

// The tail percentile a run of `samples` latencies may report: the highest
// whole percentile, at most 99, that leaves at least ten samples strictly
// beyond it under the nearest-rank rule. 0 when fewer than 11 samples.
[[nodiscard]] int tail_percentile(std::size_t samples);
// Nearest-rank percentile `p` (1..100) of `sorted` (ascending, non-empty).
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted, int p);

// Closed-loop record of one timed run: per-operation latencies, the busy
// time they add up to, and failure accounting. A failed operation is
// counted, never dropped: it stays in `attempted` and its latency stays in
// the distribution.
//
// The run is cut into rounds of identical work (one pass over the inputs,
// one cycle of the request mix or of the manifests), so the i-th sample
// of every round times the same unit of work, repeated once per round. On
// a shared host other tenants slow the CPU the benchmark runs on, in
// bursts from milliseconds to minutes (rounds of constant work were
// measured to vary by up to 1.9x, with CPU time equal to wall time), so
// the timing metrics are taken from each unit's fastest repetitions; see
// `fastest`.
struct Recorder {
  std::vector<double> latency_ms;  // one entry per latency sample
  double busy_s = 0;               // time charged to operations
  std::uint64_t ops = 0;           // operations completed in the timed run
  std::uint64_t attempted = 0;     // every operation, checked pass included
  std::uint64_t failed = 0;

  struct Round {
    double busy_s = 0;
    std::size_t first = 0;  // first latency sample of the round
    std::size_t samples = 0;
    std::uint64_t ops = 0;
  };
  std::vector<Round> rounds;

  void fail(std::uint64_t count = 1) { failed += count; }
  // One latency sample covering `ops_in_sample` operations.
  void sample(double seconds, std::uint64_t ops_in_sample = 1);
  // Opens a round, pinned to the next CPU in turn (see pin_cpu).
  void begin_round(bool spread = false);
  void end_round();
  [[nodiscard]] double ops_per_s() const;  // over every round

  // Each unit's fastest repetitions. The rounds' busy time outside
  // samples (corpus's SARIF render) counts as one more unit.
  //   best_ms   each unit's fastest repetition, ascending: p50_ms;
  //   round_s   one round with every unit at its fastest repetition:
  //             ops_per_s = round_ops / round_s;
  //   tail_ms   each unit's `per_op` fastest repetitions, ascending, where
  //             per_op = ceil(tail_samples / samples per round) (at most
  //             the round count): the fewest that give p99_ms its ten
  //             samples beyond it, so a longer run keeps a smaller share.
  // A burst of load slows some repetitions and a slow stretch whole rounds;
  // either way each unit keeps its repetitions from the host's quiet
  // moments, while a change that slows a unit slows every one.
  struct Kept {
    std::vector<double> best_ms;
    double round_s = 0;
    std::uint64_t round_ops = 0;
    std::vector<double> tail_ms;
    std::size_t rounds = 0;  // repetitions of each unit
    std::size_t per_op = 0;
  };
  [[nodiscard]] Kept fastest(std::size_t tail_samples = 1000) const;
};

// Moves the process to the `turn`-th CPU of its affinity set, counting
// round-robin (`spread` = false: onto that one CPU; true: onto all the
// others, for workloads with worker processes, which inherit the mask).
// Contention from other tenants differs between CPUs at any one moment,
// so rotating gives each unit repetitions on every CPU, and its fastest
// ones come from the least contended.
void pin_cpu(std::size_t turn, bool spread);

// One reported metric value.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Per-layer accumulator of the traced run: busy microseconds and counts,
// summed over operations and divided by the operation count at the end.
class Trace {
 public:
  // Runs `f` and charges its wall time to `name` (microseconds).
  template <typename F>
  decltype(auto) time(std::string_view name, F&& f) {
    struct Charge {
      Trace* trace;
      std::string_view name;
      Clock::time_point start = Clock::now();
      ~Charge() {
        trace->add(name, std::chrono::duration<double, std::micro>(
                             Clock::now() - start)
                             .count());
      }
    } charge{this, name};
    return f();
  }
  void add(std::string_view name, double value);
  [[nodiscard]] double sum(std::string_view name) const;

 private:
  std::map<std::string, double, std::less<>> sums_;
};

// Peak resident set of the timed run. start() returns freed heap pages to
// the system and resets the process's high-water mark (Linux
// /proc/self/clear_refs), so the benchmark's set-up and checking state
// before it do not count; pause() and resume() leave out a stretch in
// between (a set-up repetition, see Setups).
class PeakMemory {
 public:
  // False when the mark cannot be reset; mb() is then the lifetime peak.
  bool start();
  void pause();   // folds the current mark into the peak
  void resume();  // frees, then resets the mark again
  [[nodiscard]] bool started() const { return started_; }
  // The peak in MiB; with `children` > 0 the largest waited-for child's
  // peak is added once per child (the farm's workers are identical
  // processes, so this bounds their sum).
  [[nodiscard]] double mb(std::size_t children) const;

 private:
  bool started_ = false;
  double folded_kib_ = 0;
};

// The set-up repetitions of one run. Set-up takes milliseconds, and a
// shared host slows whole stretches of seconds, so a burst of set-ups
// measures whatever stretch it lands in. The first set-up runs before the
// checked pass (its result is the run's input); the other `count - 1` run
// one at a time between rounds of the timed run, evenly over its length,
// each pinned to the next CPU in turn like the rounds (`spread` as in
// pin_cpu), and their results are discarded. setup_s is the median of
// the fastest quarter of all of them.
class Setups {
 public:
  Setups(int count, double run_seconds, bool spread = false)
      : count_(count), run_s_(run_seconds), spread_(spread) {}

  // Times one set-up and returns its result.
  template <typename F>
  decltype(auto) run(F&& setup) {
    const Clock::time_point start = Clock::now();
    struct Stop {
      std::vector<double>* times;
      Clock::time_point start;
      ~Stop() { times->push_back(seconds_since(start)); }
    } stop{&times, start};
    return setup();
  }
  // Whether the timed run that began at `start` has time left; time spent
  // in set-up repetitions does not count.
  [[nodiscard]] bool running(Clock::time_point start) const {
    return elapsed(start) < run_s_;
  }
  // Before a round of that run: runs the next repetition if it is due,
  // outside `memory`. True when one ran.
  template <typename F>
  bool between_rounds(Clock::time_point start, PeakMemory& memory,
                      F&& setup) {
    const std::size_t done = times.size();
    if (done == 0 || done >= static_cast<std::size_t>(count_) ||
        elapsed(start) < run_s_ * static_cast<double>(done - 1) / (count_ - 1))
      return false;
    memory.pause();
    pin_cpu(done, spread_);
    const Clock::time_point begin = Clock::now();
    (void)run(setup);
    memory.resume();
    repeated_s_ += seconds_since(begin);
    return true;
  }

  std::vector<double> times;  // seconds, in the order run

 private:
  [[nodiscard]] double elapsed(Clock::time_point start) const {
    return seconds_since(start) - repeated_s_;
  }

  int count_;
  double run_s_;
  bool spread_;
  double repeated_s_ = 0;  // spent in repetitions during the timed run
};

// 64-bit digest of a text; the timed runs keep digests of their expected
// answers rather than the answers themselves.
[[nodiscard]] std::uint64_t digest(std::string_view text);

[[nodiscard]] double median(std::vector<double> values);

// The final stdout line: {"correct","attempted","failed","metrics"}.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace siwabench
