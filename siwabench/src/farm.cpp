// farm: farm::run_farm over manifests written during set-up, with two
// `siwa_farm --worker` subprocesses. One operation is one job certified;
// one latency sample is one manifest run (one run_farm call), which is
// what a siwa_farm user waits on.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>

#include "farm/manifest.h"
#include "farm/master.h"
#include "farm/protocol.h"
#include "farm/worker.h"
#include "graph/reachability.h"
#include "graph/scc.h"
#include "inputs.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "layers.h"
#include "server/jsonl.h"
#include "syncgraph/clg.h"
#include "syncgraph/serialize.h"
#include "workloads.h"

namespace siwabench {
namespace {

namespace farm = siwa::farm;
namespace fs = std::filesystem;

constexpr std::size_t kManifests = 16;  // 256 jobs -> 16 per manifest
constexpr std::size_t kWorkers = 2;

struct Corpus {
  std::vector<FarmFile> files;
  std::vector<farm::Manifest> manifests;
};

// Writes the files and kManifests manifests over them; each manifest gets
// every kManifests-th graph and every kManifests-th MiniAda file, so all
// of them have the same .sg/.mada split.
Corpus write_corpus(std::uint64_t seed, const fs::path& dir) {
  Corpus c;
  fs::create_directories(dir);
  c.files = farm_inputs(seed);
  std::vector<std::string> listings(kManifests);
  std::size_t graphs = 0, mada = 0;
  for (const FarmFile& f : c.files) {
    std::ofstream(dir / f.name) << f.text;
    std::size_t& counter = f.mada ? mada : graphs;
    listings[counter++ % kManifests] += f.name + "\n";
  }
  for (const std::string& listing : listings)
    c.manifests.push_back(farm::parse_manifest(listing, dir.string()));
  return c;
}

bool same_report(const farm::FarmReport& a, const farm::FarmReport& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const farm::JobResult& x = a.results[i];
    const farm::JobResult& y = b.results[i];
    if (x.id != y.id || x.status != y.status || x.detail != y.detail ||
        x.witness != y.witness || x.counters != y.counters ||
        x.budget_exceeded != y.budget_exceeded ||
        !same_diagnostics(x.diagnostics, y.diagnostics))
      return false;
  }
  return a.quarantined == b.quarantined &&
         a.merged_counters == b.merged_counters &&
         a.internal_error == b.internal_error;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::size_t tested_counter(const farm::JobResult& r) {
  const auto it = r.counters.find("refined.tested");
  return it == r.counters.end() ? 0 : static_cast<std::size_t>(it->second);
}

// One job decomposed, with the worker's options (CertifyOptions{} for
// graphs, LintOptions{} for MiniAda); empty when it reproduces `product`.
std::string decompose_job(const farm::ManifestEntry& entry,
                          const farm::JobResult& product, Trace& trace) {
  const std::string text =
      trace.time("farm.read_us", [&] { return read_file(entry.path); });
  if (entry.kind == farm::EntryKind::MiniAda) {
    const LintPieces pieces =
        decomposed_lint(text, siwa::lint::LintOptions{}, trace);
    LintReference ref;
    ref.frontend_ok = pieces.frontend_ok;
    ref.certified_free = pieces.certified_free;  // not in a JobResult
    ref.hypotheses_tested = tested_counter(product);
    ref.diagnostics = product.diagnostics;
    bool error = false;
    for (const siwa::Diagnostic& d : pieces.comparable)
      error = error || d.severity == siwa::Severity::Error;
    if (product.status != (error ? farm::JobStatus::Flagged
                                 : farm::JobStatus::Free))
      return "status";
    return compare_lint(pieces, ref);
  }

  std::string parse_error;
  const auto graph = trace.time("syncgraph.deserialize_us", [&] {
    return siwa::sg::parse_sync_graph(text, &parse_error);
  });
  if (!graph) return "deserialize: " + parse_error;
  if (trace.time("graph.has_cycle_us", [&] {
        return siwa::graph::has_cycle(graph->control_graph());
      }))
    return "cyclic control flow";
  if (!trace.time("syncgraph.deserialize_us",
                  [&] { return graph->validate(false); })
           .empty())
    return "invalid graph";
  const std::size_t closures = siwa::graph::closure_constructions();
  const auto ctx = trace.time("graph.closure_us", [&] {
    return std::make_unique<siwa::core::AnalysisContext>(*graph);
  });
  trace.add("graph.closure_constructions",
            static_cast<double>(siwa::graph::closure_constructions() -
                                closures));
  trace.add("syncgraph.nodes", static_cast<double>(graph->node_count()));
  const Verdict verdict =
      decomposed_certify(*ctx, siwa::core::CertifyOptions{}, trace);
  std::vector<std::string> witness;
  for (siwa::NodeId n : verdict.witness_nodes)
    witness.push_back(graph->describe(n));
  if (product.status != (verdict.certified_free ? farm::JobStatus::Free
                                                : farm::JobStatus::Flagged))
    return "verdict";
  if (verdict.hypotheses_tested != tested_counter(product))
    return "hypotheses_tested";
  if (witness != product.witness) return "witness";
  return "";
}

// The cost of the per-job MetricsSink FarmWorker::run_job attaches,
// measured directly: the job's certify (.sg) or lint (.mada) call on the
// same parsed input, once with a fresh sink read out by counter_totals()
// as run_job does, once without; `sink_first` alternates the order.
// Microseconds, with minus without; empty when the two calls disagree.
std::optional<double> sink_cost_us(const farm::ManifestEntry& entry,
                                   bool sink_first) {
  const std::string text = read_file(entry.path);
  std::function<bool(siwa::obs::SinkRef)> call;  // true: certified free
  std::optional<siwa::sg::SyncGraph> graph;
  siwa::DiagnosticSink frontend;
  std::optional<siwa::lang::Program> program;
  if (entry.kind == farm::EntryKind::MiniAda) {
    program = siwa::lang::parse_program(text, frontend);
    if (program) siwa::lang::check_program(*program, frontend);
    if (!program || frontend.has_errors()) return std::nullopt;
    call = [&](siwa::obs::SinkRef sink) {
      siwa::lint::LintOptions options;
      options.metrics = sink;
      return !siwa::lint::run_lint(*program, text, options,
                                   frontend.diagnostics())
                  .has_errors();
    };
  } else {
    graph = siwa::sg::parse_sync_graph(text);
    if (!graph) return std::nullopt;
    call = [&](siwa::obs::SinkRef sink) {
      siwa::core::CertifyOptions options;
      options.metrics = sink;
      return siwa::core::certify_graph(*graph, options).certified_free;
    };
  }
  double with_us = 0, without_us = 0;
  bool with_free = false, without_free = false;
  for (const bool with_sink : {sink_first, !sink_first}) {
    const Clock::time_point t = Clock::now();
    if (with_sink) {
      siwa::obs::MetricsSink sink;
      with_free = call(siwa::obs::SinkRef{&sink});
      (void)sink.counter_totals();
      with_us = seconds_since(t) * 1e6;
    } else {
      without_free = call({});
      without_us = seconds_since(t) * 1e6;
    }
  }
  if (with_free != without_free) return std::nullopt;
  return with_us - without_us;
}

}  // namespace

Report run_farm_workload(const RunConfig& config) {
  Report report;
  report.rss_children = kWorkers;
  const fs::path dir =
      fs::path(config.workdir) / ("farm-" + std::to_string(::getpid()));
  farm::FarmOptions options;
  options.workers = kWorkers;
  options.worker_command = {config.farm_bin, "--worker"};

  // Every set-up writes the corpus into the same directory: the first
  // creates the files, the repetitions rewrite them in place with the same
  // bytes. Creating and deleting 256 files per repetition instead slowed
  // the calibration host's file system with every cycle (14 ms to 75 ms
  // over 20 cycles), so set-up time would have drifted up over a series.
  fs::remove_all(dir);
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  Setups setups(kSetups, untraced_s, /*spread=*/true);
  auto setup = [&] {
    Corpus c = write_corpus(config.seed, dir);
    if (config.inject_malformed)
      for (const farm::ManifestEntry& e : c.manifests[0].entries)
        if (e.kind == farm::EntryKind::SyncGraph) {
          std::ofstream(e.path) << "node 7 garbage\n";
          break;
        }
    (void)farm::run_farm(c.manifests[0], options);
    return c;
  };
  const Corpus corpus = setups.run(setup);

  // Checked pass: the in-process reference report of every manifest. Its
  // jobs must all succeed (no error status, no quarantine).
  Recorder& rec = report.rec;
  std::vector<farm::FarmReport> refs;
  std::size_t jobs = 0, free_jobs = 0, graphs = 0;
  double sync_nodes = 0, clg_nodes = 0;
  for (const farm::Manifest& m : corpus.manifests) {
    refs.push_back(farm::run_farm(m, farm::FarmOptions{}));
    const farm::FarmReport& ref = refs.back();
    for (const farm::JobResult& r : ref.results) {
      ++jobs;
      ++rec.attempted;
      if (r.status == farm::JobStatus::Error) rec.fail();
      free_jobs += r.status == farm::JobStatus::Free;
    }
    if (!ref.quarantined.empty() || ref.internal_error)
      rec.fail(m.entries.size());
  }
  for (const FarmFile& f : corpus.files) {
    if (f.mada) continue;
    const auto graph = siwa::sg::parse_sync_graph(f.text);
    if (!graph) continue;
    ++graphs;
    sync_nodes += static_cast<double>(graph->node_count());
    clg_nodes += static_cast<double>(siwa::sg::Clg(*graph).node_count());
  }
  report.certified_free_share =
      static_cast<double>(free_jobs) / static_cast<double>(jobs);
  const double n = static_cast<double>(corpus.files.size());
  report.properties = {
      {"input.jobs", "count", n},
      {"input.manifest_jobs", "count", n / kManifests},
      {"input.sg_share", "ratio", static_cast<double>(graphs) / n},
      {"input.mada_share", "ratio", 1.0 - static_cast<double>(graphs) / n},
      {"input.workers", "count", static_cast<double>(kWorkers)},
      {"input.certified_free_share", "ratio", report.certified_free_share},
      {"input.sync_nodes", "count", sync_nodes / static_cast<double>(graphs)},
      {"input.clg_nodes", "count", clg_nodes / static_cast<double>(graphs)},
  };
  report.notes.push_back("checked pass: " + std::to_string(jobs) +
                         " jobs in-process, " + std::to_string(rec.failed) +
                         " with an error status or quarantined");
  report.memory.start();

  // One subprocess run of manifest `m`, compared with its reference: the
  // merged report must be identical, with no deaths, retries or
  // quarantines. A failed run fails all of its jobs.
  std::size_t failed_runs = 0;
  auto run = [&](std::size_t m, const farm::FarmOptions& o, bool sample) {
    const Clock::time_point t = Clock::now();
    const farm::FarmReport got = farm::run_farm(corpus.manifests[m], o);
    const double latency = seconds_since(t);
    const std::size_t size = corpus.manifests[m].entries.size();
    if (sample)
      rec.sample(latency, size);
    else
      rec.attempted += size;
    if (!same_report(got, refs[m]) || got.stats.worker_deaths != 0 ||
        got.stats.retries != 0 || !got.quarantined.empty()) {
      rec.fail(size);
      ++failed_runs;
    } else {
      for (const farm::JobResult& r : got.results)
        if (r.status == farm::JobStatus::Error) rec.fail();
    }
    return latency;
  };

  const Clock::time_point start = Clock::now();
  while (setups.running(start)) {  // whole cycles of manifests
    (void)setups.between_rounds(start, report.memory, setup);
    rec.begin_round(/*spread=*/true);
    for (std::size_t m = 0; m < kManifests; ++m) (void)run(m, options, true);
    rec.end_round();
  }
  report.notes.push_back("timed run: " + std::to_string(rec.latency_ms.size()) +
                         " manifest runs, " + std::to_string(failed_runs) +
                         " differing from the in-process reference");
  report.setup_s = setups.times;
  if (!config.trace) {
    fs::remove_all(dir);
    report.correct = rec.failed == 0;
    return report;
  }

  // Traced half: each manifest run with a farm sink (farm.* counters),
  // then every job of it decomposed in-process: the worker's job body
  // (farm.job_us), the protocol round trip, and the job's layers.
  Trace& trace = report.trace;
  siwa::obs::MetricsSink farm_sink;
  farm::FarmOptions traced = options;
  traced.metrics = siwa::obs::SinkRef{&farm_sink};
  const farm::FarmWorker worker;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  double busy = 0;
  std::size_t traced_runs = 0;
  const Clock::time_point traced_start = Clock::now();
  for (std::size_t m = 0; seconds_since(traced_start) <
                             config.seconds - untraced_s ||
                         m % kManifests != 0;
       m = (m + 1) % kManifests) {
    const Clock::time_point t = Clock::now();
    const double wall = run(m, traced, false);
    double job_and_protocol_us = 0;
    for (const farm::ManifestEntry& entry : corpus.manifests[m].entries) {
      const farm::JobRequest request{entry.index, entry.path, entry.kind, 0, 0};
      const Clock::time_point job_start = Clock::now();
      const farm::JobResult product = worker.run_job(request);
      const double job_us = seconds_since(job_start) * 1e6;
      trace.add("farm.job_us", job_us);
      const Clock::time_point protocol_start = Clock::now();
      std::string error;
      const auto doc = siwa::server::jsonl::parse_request(
          farm::job_request_line(request), &error);
      const bool round_trip =
          doc && farm::parse_job_request(*doc, &error).has_value() &&
          farm::parse_job_response(farm::job_response_line(product))
              .has_value();
      const double protocol_us = seconds_since(protocol_start) * 1e6;
      trace.add("farm.protocol_us", protocol_us);
      job_and_protocol_us += job_us + protocol_us;

      std::string diff = decompose_job(entry, product, trace);
      // Each job swaps the order of its two sink calls every cycle.
      const std::optional<double> sink_us =
          sink_cost_us(entry, (traced_runs / kManifests + entry.index) % 2 == 0);
      if (sink_us)
        trace.add("obs.job_sink_us", *sink_us);
      else
        diff = "the job's call with and without a sink disagree";
      if (!round_trip) diff = "protocol round trip";
      if (product.status != refs[m].results[entry.index].status)
        diff = "job body differs from the reference";
      if (!diff.empty()) {
        rec.fail();
        if (mismatches++ == 0) first_mismatch = entry.path + ": " + diff;
      }
    }
    trace.add("farm.ipc_us",
              static_cast<double>(kWorkers) * wall * 1e6 - job_and_protocol_us);
    busy += seconds_since(t);
    ++traced_runs;
    report.traced_ops += static_cast<double>(corpus.manifests[m].entries.size());
  }
  report.traced_ops_per_s = busy > 0 ? report.traced_ops / busy : 0;
  for (const char* counter : {"farm.deaths", "farm.retries", "farm.steals"})
    trace.add(counter, static_cast<double>(farm_sink.total(counter)));
  report.notes.push_back(
      "traced run: " + std::to_string(traced_runs) +
      " manifest runs, " +
      std::to_string(static_cast<std::uint64_t>(report.traced_ops)) +
      " jobs decomposed, " + std::to_string(mismatches) +
      " decomposition mismatches" +
      (first_mismatch.empty() ? "" : " (first: " + first_mismatch + ")"));
  fs::remove_all(dir);
  report.correct = rec.failed == 0;
  return report;
}

}  // namespace siwabench
