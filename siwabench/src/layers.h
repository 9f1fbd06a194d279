// The traced decomposition: the product paths re-run as the benchmark's
// own calls into each module's public entry points, every call charged to
// a layer in a Trace, with exactly the options the product path derives.
//
//   lint path (corpus, deep, farm .mada jobs, lintd edits)
//     lang.parse / lang.sema -> lint.balance -> syncgraph.build ->
//     graph.closure (AnalysisContext, or LintCache::acquire for lintd) ->
//     dataflow.fixpoint -> lint.rules (lint_graph, detector off) ->
//     [transform.unroll -> syncgraph.build -> graph.closure, for loops] ->
//     lint.certify, which contains the core decomposition below plus the
//     witness diagnostic. stop_at_first_hit = true, dataflow per options.
//
//   core decomposition (certify_graph's body, serial sweep)
//     syncgraph.clg -> dataflow.fixpoint -> graph.dominators ->
//     core.precedence -> core.coexec -> core.enumerate -> core.sweep
//
// Each step's outputs are compared with the untraced product call's by
// the workloads; any difference is a decomposition mismatch and fails the
// run.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis_context.h"
#include "core/certifier.h"
#include "harness.h"
#include "lint/cache.h"
#include "lint/lint.h"
#include "support/diagnostics.h"

namespace siwabench {

// A certification verdict as both paths can produce it.
struct Verdict {
  bool certified_free = false;
  std::size_t hypotheses_tested = 0;
  std::vector<siwa::NodeId> witness_nodes;
};

// The core decomposition over `ctx` with the product's certify options.
[[nodiscard]] Verdict decomposed_certify(
    const siwa::core::AnalysisContext& ctx,
    const siwa::core::CertifyOptions& options, Trace& trace);

// lintd: the mirror of one server session's LintCache, so the traced run
// refreshes contexts exactly as the server does and skips the core layers
// exactly when the server's certify memo hits (same slot revision).
struct MirrorSession {
  siwa::lint::LintCache cache;
  std::map<std::string, std::pair<std::uint64_t, Verdict>> memo;
};

// What the decomposed lint path recomputes, in comparable form.
struct LintPieces {
  bool frontend_ok = false;
  std::optional<bool> certified_free;  // disengaged: no detector verdict
  std::size_t hypotheses_tested = 0;
  bool stall_free = true;               // SIWA004 fires iff false
  std::vector<siwa::Diagnostic> witness;     // SIWA010 diagnostics
  std::vector<siwa::Diagnostic> comparable;  // see comparable_diagnostics
};

// The lint path decomposed (see the header comment); `mirror` selects the
// lintd form.
[[nodiscard]] LintPieces decomposed_lint(const std::string& text,
                                         const siwa::lint::LintOptions& options,
                                         Trace& trace,
                                         MirrorSession* mirror = nullptr);

// The product's diagnostics in the form the decomposition recomputes:
// SIWA004 (stall balance, anchored by a lint-internal AST pass), SIWA005
// (anchored at task declarations by the same pass) and SIWA999
// (suppression meta) removed, then one entry per (rule, location), most
// severe first, in render order — the lint engine's own dedupe.
[[nodiscard]] std::vector<siwa::Diagnostic> comparable_diagnostics(
    std::vector<siwa::Diagnostic> diagnostics);

[[nodiscard]] bool same_diagnostics(const std::vector<siwa::Diagnostic>& a,
                                    const std::vector<siwa::Diagnostic>& b);
// Digest of every field same_diagnostics compares, in order.
[[nodiscard]] std::uint64_t diagnostics_digest(
    const std::vector<siwa::Diagnostic>& diagnostics);

// The product lint call's observable outputs, with hypotheses_tested read
// off the refined.tested counter of an attached MetricsSink.
struct LintReference {
  bool frontend_ok = false;
  std::optional<bool> certified_free;
  std::size_t hypotheses_tested = 0;
  std::vector<siwa::Diagnostic> diagnostics;  // the full product report
};

// parse -> sema -> run_lint, the pipeline batch_report and siwa_lint run.
// Frontend failures return the sorted frontend diagnostics alone.
[[nodiscard]] LintReference product_lint(const std::string& text,
                                         const siwa::lint::LintOptions& options,
                                         siwa::obs::SinkRef sink = {});

// Empty when the decomposition reproduces `ref`; otherwise what differs.
[[nodiscard]] std::string compare_lint(const LintPieces& pieces,
                                       const LintReference& ref);

}  // namespace siwabench
