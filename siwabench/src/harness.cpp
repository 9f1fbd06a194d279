#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace siwabench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

int tail_percentile(std::size_t samples) {
  if (samples <= 10) return 0;
  // Nearest rank of percentile p is ceil(p * n / 100); the samples beyond
  // it number n - ceil(p * n / 100) >= 10  <=>  p <= 100 * (n - 10) / n.
  const std::size_t p = 100 * (samples - 10) / samples;
  return static_cast<int>(std::min<std::size_t>(p, 99));
}

double nearest_rank(const std::vector<double>& sorted, int p) {
  const std::size_t n = sorted.size();
  std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

void Recorder::sample(double seconds, std::uint64_t ops_in_sample) {
  latency_ms.push_back(seconds * 1e3);
  busy_s += seconds;
  ops += ops_in_sample;
  attempted += ops_in_sample;
}

namespace {

// The CPUs the process may run on when it starts.
const std::vector<int>& affinity_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) out.push_back(c);
    return out;
  }();
  return cpus;
}

}  // namespace

void pin_cpu(std::size_t turn, bool spread) {
  const std::vector<int>& cpus = affinity_cpus();
  if (cpus.size() < 2) return;
  const int chosen = cpus[turn % cpus.size()];
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus)
    if ((c == chosen) != spread) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

void Recorder::begin_round(bool spread) {
  pin_cpu(rounds.size(), spread);
  rounds.push_back({busy_s, latency_ms.size(), 0, ops});
}

void Recorder::end_round() {
  Round& r = rounds.back();
  r.busy_s = busy_s - r.busy_s;
  r.samples = latency_ms.size() - r.first;
  r.ops = ops - r.ops;
}

Recorder::Kept Recorder::fastest(std::size_t tail_samples) const {
  Kept kept;
  if (rounds.empty()) return kept;
  // Every round holds the same operations; the timed loops end on whole
  // rounds, so they all have the first one's shape.
  const std::size_t slots = rounds.front().samples;
  kept.round_ops = rounds.front().ops;
  kept.rounds = rounds.size();
  kept.per_op = std::min(
      rounds.size(), slots == 0 ? 1 : (tail_samples + slots - 1) / slots);
  std::vector<double> repeats(rounds.size());
  for (std::size_t slot = 0; slot < slots; ++slot) {
    for (std::size_t r = 0; r < rounds.size(); ++r)
      repeats[r] = latency_ms[rounds[r].first + slot];
    std::partial_sort(repeats.begin(), repeats.begin() + kept.per_op,
                      repeats.end());
    kept.best_ms.push_back(repeats.front());
    kept.round_s += repeats.front() / 1e3;
    kept.tail_ms.insert(kept.tail_ms.end(), repeats.begin(),
                        repeats.begin() + kept.per_op);
  }
  double outside_s = rounds.front().busy_s;
  for (const Round& r : rounds) {
    double sampled_ms = 0;
    for (std::size_t i = 0; i < slots; ++i)
      sampled_ms += latency_ms[r.first + i];
    outside_s = std::min(outside_s, r.busy_s - sampled_ms / 1e3);
  }
  kept.round_s += std::max(0.0, outside_s);
  std::sort(kept.best_ms.begin(), kept.best_ms.end());
  std::sort(kept.tail_ms.begin(), kept.tail_ms.end());
  return kept;
}

double Recorder::ops_per_s() const {
  return busy_s > 0 ? static_cast<double>(ops) / busy_s : 0;
}

void Trace::add(std::string_view name, double value) {
  const auto it = sums_.find(name);
  if (it != sums_.end())
    it->second += value;
  else
    sums_.emplace(std::string(name), value);
}

double Trace::sum(std::string_view name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0 : it->second;
}

namespace {

bool reset_mark() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak RSS to the current RSS
  clear.flush();
  return static_cast<bool>(clear);
}

// The process's resident-set high-water mark in KiB. VmHWM follows
// clear_refs resets; ru_maxrss does not, so it is only the fallback.
double mark_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss);
}

}  // namespace

bool PeakMemory::start() {
  started_ = reset_mark();
  folded_kib_ = 0;
  return started_;
}

void PeakMemory::pause() { folded_kib_ = std::max(folded_kib_, mark_kib()); }

void PeakMemory::resume() {
  if (started_) (void)reset_mark();
}

double PeakMemory::mb(std::size_t children) const {
  double kib = std::max(folded_kib_, mark_kib());
  if (children > 0) {
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    kib += static_cast<double>(kids.ru_maxrss) * static_cast<double>(children);
  }
  return kib / 1024.0;
}

std::uint64_t digest(std::string_view text) {
  return std::hash<std::string_view>{}(text);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g keeps every digit the double carries; JSON has no NaN/inf.
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace siwabench
