// corpus and deep: programs linted one at a time through the batch_report /
// siwa_lint pipeline (parse -> sema -> run_lint). One operation is one
// program linted; corpus also renders every pass as one SARIF document,
// whose time is charged to the pass's busy time.
#include <algorithm>
#include <functional>
#include <optional>

#include "inputs.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "layers.h"
#include "lint/render.h"
#include "graph/scc.h"
#include "syncgraph/builder.h"
#include "syncgraph/clg.h"
#include "transform/unroll.h"
#include "wavesim/shared.h"
#include "workloads.h"

namespace siwabench {
namespace {

using siwa::Diagnostic;
using siwa::lint::LintOptions;

enum class Check { Passed, Unchecked, NotNeeded, Failed };

struct ProgramWorkload {
  std::function<std::vector<ProgramInput>(std::uint64_t)> generate;
  LintOptions options;
  bool render_sarif = false;
  // Independent check of one product answer against a reference that is
  // not the detector itself.
  std::function<Check(const ProgramInput&, const siwa::lang::Program&,
                      const LintReference&, std::string*)>
      check;
};

// Set-up warms up on the shortest programs, so its cost does not depend on
// where the seeded shuffle put the expensive ones.
constexpr std::size_t kWarmup = 4;

std::vector<const ProgramInput*> shortest(const std::vector<ProgramInput>& in,
                                          std::size_t count) {
  std::vector<const ProgramInput*> out;
  for (const ProgramInput& p : in) out.push_back(&p);
  std::stable_sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    return a->text.size() < b->text.size();
  });
  out.resize(std::min(count, out.size()));
  return out;
}

std::vector<siwa::lint::FileDiagnostics> as_files(
    const std::vector<ProgramInput>& inputs,
    const std::vector<LintReference>& refs) {
  std::vector<siwa::lint::FileDiagnostics> files;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    files.push_back({inputs[i].name, refs[i].diagnostics});
  return files;
}

Report run_programs(const RunConfig& config, const ProgramWorkload& w) {
  Report report;
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  Setups setups(kSetups, untraced_s);
  auto setup = [&] {
    std::vector<ProgramInput> generated = w.generate(config.seed);
    if (config.inject_malformed)
      generated[0].text =
          generated[0].text.substr(0, generated[0].text.size() / 2);
    for (const ProgramInput* p : shortest(generated, kWarmup))
      (void)product_lint(p->text, w.options);
    return generated;
  };
  const std::vector<ProgramInput> inputs = setups.run(setup);

  // Checked pass: the product answer for every program, its independent
  // check, and the input properties. The timed run compares with digests
  // of the answers; the full answers stay only for the traced run.
  struct Expected {
    std::optional<bool> certified_free;
    std::uint64_t diagnostics = 0;
  };
  siwa::obs::MetricsSink sink;
  std::vector<LintReference> refs;
  std::vector<Expected> expected;
  std::size_t checked = 0, unchecked = 0, with_loops = 0, with_shared = 0,
              certified = 0;
  double sync_nodes = 0, clg_nodes = 0;
  std::string first_failure;
  for (const ProgramInput& in : inputs) {
    refs.push_back(product_lint(in.text, w.options, siwa::obs::SinkRef{&sink}));
    const LintReference& ref = refs.back();
    expected.push_back({ref.certified_free, diagnostics_digest(ref.diagnostics)});
    ++report.rec.attempted;
    siwa::DiagnosticSink frontend;
    const auto program = siwa::lang::parse_program(in.text, frontend);
    if (!ref.frontend_ok || !program) {
      report.rec.fail();
      if (first_failure.empty()) first_failure = in.name + ": frontend error";
      continue;
    }
    std::string why;
    switch (w.check(in, *program, ref, &why)) {
      case Check::Passed: ++checked; break;
      case Check::Unchecked: ++unchecked; break;
      case Check::NotNeeded: break;
      case Check::Failed:
        report.rec.fail();
        if (first_failure.empty()) first_failure = in.name + ": " + why;
        break;
    }
    const bool loops = siwa::transform::has_loops(*program);
    with_loops += loops;
    with_shared += !program->shared_conditions.empty();
    certified += ref.certified_free == true;
    const siwa::sg::SyncGraph graph = siwa::sg::build_sync_graph(
        loops ? siwa::transform::unroll_loops_twice(*program) : *program);
    sync_nodes += static_cast<double>(graph.node_count());
    if (!loops || !siwa::graph::has_cycle(graph.control_graph()))
      clg_nodes += static_cast<double>(siwa::sg::Clg(graph).node_count());
  }
  const double n = static_cast<double>(inputs.size());
  report.certified_free_share = static_cast<double>(certified) / n;
  report.properties = {
      {"input.programs", "count", n},
      {"input.loops_share", "ratio", static_cast<double>(with_loops) / n},
      {"input.shared_conditions_share", "ratio",
       static_cast<double>(with_shared) / n},
      {"input.certified_free_share", "ratio", report.certified_free_share},
      {"input.sync_nodes", "count", sync_nodes / n},
      {"input.clg_nodes", "count", clg_nodes / n},
  };
  report.notes.push_back(
      "checked pass: " + std::to_string(inputs.size()) + " programs, " +
      std::to_string(checked) + " answers checked, " +
      std::to_string(unchecked) + " unchecked (reference capped), " +
      std::to_string(report.rec.failed) + " failed" +
      (first_failure.empty() ? "" : " (first: " + first_failure + ")"));
  const std::uint64_t sarif_expected =
      w.render_sarif ? digest(siwa::lint::render_sarif(as_files(inputs, refs)))
                     : 0;
  if (!config.trace) std::vector<LintReference>().swap(refs);
  report.memory.start();

  // Timed run, in whole passes over the inputs (so every program weighs the
  // same in the distribution) until the time is up.
  Recorder& rec = report.rec;
  std::size_t mismatches = 0;
  const Clock::time_point start = Clock::now();
  while (setups.running(start)) {
    (void)setups.between_rounds(start, report.memory, setup);
    rec.begin_round();
    std::vector<siwa::lint::FileDiagnostics> files;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Clock::time_point t = Clock::now();
      LintReference got = product_lint(inputs[i].text, w.options);
      rec.sample(seconds_since(t));
      if (!got.frontend_ok || got.certified_free != expected[i].certified_free ||
          diagnostics_digest(got.diagnostics) != expected[i].diagnostics) {
        rec.fail();
        ++mismatches;
      }
      if (w.render_sarif)
        files.push_back({inputs[i].name, std::move(got.diagnostics)});
    }
    if (w.render_sarif) {
      const Clock::time_point t = Clock::now();
      const std::string doc = siwa::lint::render_sarif(files);
      rec.busy_s += seconds_since(t);
      if (digest(doc) != sarif_expected) {
        rec.fail(files.size());
        ++mismatches;
      }
    }
    rec.end_round();
  }
  report.notes.push_back("timed run: " + std::to_string(rec.ops) +
                         " programs, " + std::to_string(mismatches) +
                         " answers differing from the checked pass");
  report.setup_s = setups.times;
  if (!config.trace) {
    report.correct = rec.failed == 0;
    return report;
  }

  // Traced half: the decomposition, compared with the product answers.
  Trace& trace = report.trace;
  double busy = 0;
  std::size_t decomposition_mismatches = 0;
  std::string first_mismatch;
  const Clock::time_point traced_start = Clock::now();
  while (seconds_since(traced_start) < config.seconds - untraced_s) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const Clock::time_point t = Clock::now();
      const LintPieces pieces = decomposed_lint(inputs[i].text, w.options, trace);
      busy += seconds_since(t);
      report.traced_ops += 1;
      ++rec.attempted;
      trace.add("lint.diagnostics",
                static_cast<double>(refs[i].diagnostics.size()));
      const std::string diff = compare_lint(pieces, refs[i]);
      if (!diff.empty()) {
        rec.fail();
        if (decomposition_mismatches++ == 0)
          first_mismatch = inputs[i].name + ": " + diff;
      }
    }
    if (w.render_sarif) {
      const auto files = as_files(inputs, refs);
      const Clock::time_point t = Clock::now();
      const std::string doc = trace.time(
          "lint.render_us", [&] { return siwa::lint::render_sarif(files); });
      busy += seconds_since(t);
      trace.add("lint.render_bytes", static_cast<double>(doc.size()));
    }
  }
  report.traced_ops_per_s = busy > 0 ? report.traced_ops / busy : 0;
  report.notes.push_back(
      "traced run: " + std::to_string(static_cast<std::uint64_t>(report.traced_ops)) +
      " programs decomposed, " + std::to_string(decomposition_mismatches) +
      " decomposition mismatches" +
      (first_mismatch.empty() ? "" : " (first: " + first_mismatch + ")"));
  report.correct = rec.failed == 0;
  return report;
}

bool has_error(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags)
    if (d.severity == siwa::Severity::Error) return true;
  return false;
}

}  // namespace

Report run_corpus(const RunConfig& config) {
  ProgramWorkload w;
  w.generate = corpus_inputs;
  w.render_sarif = true;
  // Every certified-free verdict and every Error finding is cross-checked
  // against the assignment-exact wave oracle lint_corpus uses. A capped
  // exploration proves nothing and is reported as unchecked.
  w.check = [](const ProgramInput&, const siwa::lang::Program& program,
               const LintReference& ref, std::string* why) {
    const bool claims_free = ref.certified_free == true;
    const bool claims_error = has_error(ref.diagnostics);
    if (!claims_free && !claims_error) return Check::NotNeeded;
    siwa::wavesim::ExploreOptions explore;
    explore.max_states = 20'000;
    explore.collect_witness_trace = false;
    const siwa::wavesim::SharedExploreResult oracle =
        siwa::wavesim::explore_shared(program, explore);
    if (!oracle.combined.complete) return Check::Unchecked;
    if (claims_free && oracle.combined.any_deadlock) {
      *why = "certified free, but the oracle reaches a deadlock";
      return Check::Failed;
    }
    if (claims_error && !oracle.combined.any_deadlock &&
        !oracle.combined.any_stall) {
      *why = "Error finding on a program the oracle proves anomaly-free";
      return Check::Failed;
    }
    return Check::Passed;
  };
  return run_programs(config, w);
}

Report run_deep(const RunConfig& config) {
  ProgramWorkload w;
  w.generate = deep_inputs;
  // siwa_lint --algorithm pairs.
  w.options.algorithm = siwa::core::Algorithm::RefinedHeadPair;
  // The reference is the generator's own variant flag: every deadlocking
  // variant must be flagged.
  w.check = [](const ProgramInput& in, const siwa::lang::Program&,
               const LintReference& ref, std::string* why) {
    if (!in.deadlocking) return Check::NotNeeded;
    if (ref.certified_free != false) {
      *why = "deadlocking variant not flagged";
      return Check::Failed;
    }
    return Check::Passed;
  };
  return run_programs(config, w);
}

}  // namespace siwabench
