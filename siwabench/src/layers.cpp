#include "layers.h"

#include <algorithm>
#include <memory>
#include <tuple>

#include "core/coexec.h"
#include "core/precedence.h"
#include "core/refined_detector.h"
#include "graph/reachability.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "stall/balance.h"
#include "support/arena.h"
#include "syncgraph/builder.h"
#include "transform/unroll.h"

namespace siwabench {
namespace {

namespace core = siwa::core;
namespace sg = siwa::sg;
using siwa::Diagnostic;

core::HypothesisMode mode_of(core::Algorithm algorithm) {
  switch (algorithm) {
    case core::Algorithm::RefinedHeadPair: return core::HypothesisMode::HeadPair;
    case core::Algorithm::RefinedHeadTail: return core::HypothesisMode::HeadTail;
    case core::Algorithm::RefinedHeadTailPairs:
      return core::HypothesisMode::HeadTailPairs;
    default: return core::HypothesisMode::SingleHead;
  }
}

// The certify options run_lint derives from its LintOptions.
core::CertifyOptions lint_certify_options(const siwa::lint::LintOptions& o) {
  core::CertifyOptions c;
  c.algorithm = o.algorithm;
  c.apply_constraint4 = o.apply_constraint4;
  c.stop_at_first_hit = true;
  c.use_guard_dataflow = o.use_guard_dataflow;
  c.parallel.threads = o.threads;
  return c;
}

// Builds (or, for lintd, refreshes through the mirror cache) the analysis
// context of one graph family, charging graph.closure.
const core::AnalysisContext& context_for(
    const char* slot, std::unique_ptr<sg::SyncGraph> graph, Trace& trace,
    MirrorSession* mirror, std::unique_ptr<sg::SyncGraph>& owned_graph,
    std::unique_ptr<core::AnalysisContext>& owned_ctx) {
  const std::size_t closures = siwa::graph::closure_constructions();
  const core::AnalysisContext* ctx = trace.time("graph.closure_us", [&] {
    if (mirror != nullptr) {
      const std::size_t rebuilds = mirror->cache.stats().context_rebuilds;
      const core::AnalysisContext* c =
          &mirror->cache.acquire(slot, std::move(graph));
      // A rebuilt slot drops the server's certify memos with it.
      if (mirror->cache.stats().context_rebuilds != rebuilds)
        mirror->memo.erase(slot);
      return c;
    }
    owned_graph = std::move(graph);
    owned_ctx = std::make_unique<core::AnalysisContext>(*owned_graph);
    return static_cast<const core::AnalysisContext*>(owned_ctx.get());
  });
  trace.add("graph.closure_constructions",
            static_cast<double>(siwa::graph::closure_constructions() -
                                closures));
  return *ctx;
}

}  // namespace

Verdict decomposed_certify(const core::AnalysisContext& ctx,
                           const core::CertifyOptions& options, Trace& trace) {
  const sg::Clg* clg =
      trace.time("syncgraph.clg_us", [&] { return &ctx.clg(); });
  trace.add("syncgraph.clg_nodes", static_cast<double>(clg->node_count()));
  trace.add("syncgraph.clg_edges", static_cast<double>(clg->edge_count()));

  const siwa::dataflow::GuardFeasibility* feas = nullptr;
  if (options.use_guard_dataflow) {
    const siwa::dataflow::GuardFeasibility* engine = trace.time(
        "dataflow.fixpoint_us", [&] { return &ctx.guard_feasibility(); });
    if (engine->has_conditions()) feas = engine;
  }
  trace.time("graph.dominators_us", [&] { return &ctx.dominators(); });

  core::PrecedenceOptions precedence_options = options.precedence;
  precedence_options.feasibility = feas;
  const auto precedence = trace.time("core.precedence_us", [&] {
    return std::make_unique<core::Precedence>(ctx, precedence_options);
  });
  const auto coexec = trace.time("core.coexec_us", [&] {
    return std::make_unique<core::CoExec>(ctx, options.extra_not_coexec, feas);
  });

  core::RefinedOptions refined;
  refined.mode = mode_of(options.algorithm);
  refined.apply_constraint4 = options.apply_constraint4;
  refined.stop_at_first_hit = options.stop_at_first_hit;
  refined.feasibility = feas;
  const std::vector<core::Hypothesis> hyps = trace.time(
      "core.enumerate_us", [&] {
        return core::enumerate_hypotheses(ctx, *precedence, *coexec, refined);
      });
  trace.add("core.hypotheses", static_cast<double>(hyps.size()));

  // The serial sweep detect_refined runs at threads = 1: evaluate in
  // enumeration order, keep the first confirmed hypothesis's witness.
  Verdict verdict;
  verdict.certified_free = true;
  trace.time("core.sweep_us", [&] {
    siwa::support::Arena& arena = siwa::support::scratch_arena();
    const siwa::support::Arena::Scope scope(arena);
    core::MarkedSearch scratch(*clg, arena);
    trace.add("core.scratch_bytes", static_cast<double>(scratch.scratch_bytes()));
    for (const core::Hypothesis& hyp : hyps) {
      core::HypothesisOutcome outcome = core::evaluate_hypothesis(
          ctx, *clg, *precedence, *coexec, hyp, scratch);
      ++verdict.hypotheses_tested;
      if (!outcome.hit) continue;
      if (verdict.certified_free) {
        verdict.certified_free = false;
        for (siwa::ClgNodeId v : outcome.witness_clg) {
          const siwa::NodeId origin = clg->origin(v);
          if (origin.valid() && (verdict.witness_nodes.empty() ||
                                 verdict.witness_nodes.back() != origin))
            verdict.witness_nodes.push_back(origin);
        }
      }
      if (options.stop_at_first_hit) break;
    }
    return 0;
  });
  trace.add("core.tested", static_cast<double>(verdict.hypotheses_tested));
  return verdict;
}

LintPieces decomposed_lint(const std::string& text,
                           const siwa::lint::LintOptions& options,
                           Trace& trace, MirrorSession* mirror) {
  LintPieces pieces;
  siwa::DiagnosticSink frontend;
  auto program = trace.time("lang.parse_us", [&] {
    return siwa::lang::parse_program(text, frontend);
  });
  trace.add("lang.parse_bytes", static_cast<double>(text.size()));
  if (program)
    trace.time("lang.sema_us",
               [&] { return siwa::lang::check_program(*program, frontend); });
  if (!program || frontend.has_errors()) return pieces;
  pieces.frontend_ok = true;

  pieces.stall_free = trace.time("lint.balance_us", [&] {
    return siwa::stall::check_stall_balance(*program).stall_free;
  });

  std::unique_ptr<sg::SyncGraph> owned_graph, owned_unrolled;
  std::unique_ptr<core::AnalysisContext> owned_ctx, owned_unrolled_ctx;
  auto graph = trace.time("syncgraph.build_us", [&] {
    return std::make_unique<sg::SyncGraph>(sg::build_sync_graph(*program));
  });
  trace.add("syncgraph.nodes", static_cast<double>(graph->node_count()));
  const core::AnalysisContext& ctx = context_for(
      "structural", std::move(graph), trace, mirror, owned_graph, owned_ctx);
  if (options.use_guard_dataflow) {
    const auto* engine = trace.time("dataflow.fixpoint_us",
                                    [&] { return &ctx.guard_feasibility(); });
    trace.add("dataflow.iterations", static_cast<double>(engine->iterations()));
    trace.add("dataflow.infeasible_nodes",
              static_cast<double>(engine->infeasible_count()));
  }

  siwa::lint::LintOptions rules = options;
  rules.run_detector = false;
  rules.metrics = {};
  std::vector<Diagnostic> diags = trace.time(
      "lint.rules_us", [&] { return siwa::lint::lint_graph(ctx, rules); });

  // The detector runs on the Lemma 1 unrolled graph when the program loops.
  const core::AnalysisContext* detector_ctx = &ctx;
  const char* slot = "structural";
  if (options.run_detector && siwa::transform::has_loops(*program)) {
    const siwa::lang::Program unrolled = trace.time("transform.unroll_us", [&] {
      return siwa::transform::unroll_loops_twice(*program);
    });
    auto unrolled_graph = trace.time("syncgraph.build_us", [&] {
      return std::make_unique<sg::SyncGraph>(sg::build_sync_graph(unrolled));
    });
    slot = "unrolled";
    detector_ctx = &context_for(slot, std::move(unrolled_graph), trace, mirror,
                                owned_unrolled, owned_unrolled_ctx);
  }

  if (options.run_detector && detector_ctx->control_acyclic()) {
    trace.time("lint.certify_us", [&] {
      const std::uint64_t revision = detector_ctx->revision();
      Verdict verdict;
      if (mirror != nullptr && mirror->memo.count(slot) != 0 &&
          mirror->memo[slot].first == revision) {
        verdict = mirror->memo[slot].second;
        verdict.hypotheses_tested = 0;  // a memo hit runs no sweep
      } else {
        verdict = decomposed_certify(*detector_ctx,
                                     lint_certify_options(options), trace);
        if (mirror != nullptr) mirror->memo[slot] = {revision, verdict};
      }
      pieces.certified_free = verdict.certified_free;
      pieces.hypotheses_tested = verdict.hypotheses_tested;
      core::CertifyResult result;
      result.certified_free = verdict.certified_free;
      result.witness_nodes = verdict.witness_nodes;
      pieces.witness =
          siwa::lint::witness_diagnostics(detector_ctx->graph(), result);
      return 0;
    });
  }

  diags.insert(diags.end(), frontend.diagnostics().begin(),
               frontend.diagnostics().end());
  diags.insert(diags.end(), pieces.witness.begin(), pieces.witness.end());
  pieces.comparable = comparable_diagnostics(std::move(diags));
  return pieces;
}

std::vector<Diagnostic> comparable_diagnostics(std::vector<Diagnostic> diags) {
  std::erase_if(diags, [](const Diagnostic& d) {
    return d.rule_id == "SIWA004" || d.rule_id == "SIWA005" ||
           d.rule_id == "SIWA999";
  });
  std::stable_sort(diags.begin(), diags.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::tie(a.loc.line, a.loc.column, a.rule_id,
                                     a.severity, a.message) <
                            std::tie(b.loc.line, b.loc.column, b.rule_id,
                                     b.severity, b.message);
                   });
  diags.erase(std::unique(diags.begin(), diags.end(),
                          [](const Diagnostic& a, const Diagnostic& b) {
                            return !a.rule_id.empty() &&
                                   a.rule_id == b.rule_id && a.loc == b.loc;
                          }),
              diags.end());
  siwa::sort_and_dedupe(diags);
  return diags;
}

bool same_diagnostics(const std::vector<Diagnostic>& a,
                      const std::vector<Diagnostic>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Diagnostic& x, const Diagnostic& y) {
                      if (x.severity != y.severity || !(x.loc == y.loc) ||
                          x.message != y.message || x.rule_id != y.rule_id ||
                          x.related.size() != y.related.size())
                        return false;
                      for (std::size_t i = 0; i < x.related.size(); ++i)
                        if (!(x.related[i].loc == y.related[i].loc) ||
                            x.related[i].note != y.related[i].note)
                          return false;
                      return true;
                    });
}

std::uint64_t diagnostics_digest(const std::vector<Diagnostic>& diagnostics) {
  std::string key;
  auto field = [&](std::string_view text) {
    key += text;
    key += '\x1f';
  };
  for (const Diagnostic& d : diagnostics) {
    field(siwa::severity_name(d.severity));
    field(d.loc.to_string());
    field(d.message);
    field(d.rule_id);
    for (const siwa::RelatedLoc& r : d.related) {
      field(r.loc.to_string());
      field(r.note);
    }
    key += '\x1e';
  }
  return digest(key);
}

LintReference product_lint(const std::string& text,
                           const siwa::lint::LintOptions& options,
                           siwa::obs::SinkRef sink) {
  LintReference ref;
  siwa::DiagnosticSink frontend;
  auto program = siwa::lang::parse_program(text, frontend);
  if (program) siwa::lang::check_program(*program, frontend);
  if (!program || frontend.has_errors()) {
    ref.diagnostics = frontend.sorted_diagnostics();
    return ref;
  }
  ref.frontend_ok = true;
  siwa::lint::LintOptions with_sink = options;
  with_sink.metrics = sink;
  const std::uint64_t tested_before =
      sink ? sink.sink->total("refined.tested") : 0;
  siwa::lint::LintResult result =
      siwa::lint::run_lint(*program, text, with_sink, frontend.diagnostics());
  ref.certified_free = result.certified_free;
  if (sink)
    ref.hypotheses_tested = static_cast<std::size_t>(
        sink.sink->total("refined.tested") - tested_before);
  ref.diagnostics = std::move(result.diagnostics);
  return ref;
}

std::string compare_lint(const LintPieces& pieces, const LintReference& ref) {
  if (pieces.frontend_ok != ref.frontend_ok) return "frontend verdict";
  if (!ref.frontend_ok) return "";
  if (pieces.certified_free != ref.certified_free) return "verdict";
  if (pieces.hypotheses_tested != ref.hypotheses_tested)
    return "hypotheses_tested " + std::to_string(pieces.hypotheses_tested) +
           " vs " + std::to_string(ref.hypotheses_tested);
  std::vector<Diagnostic> witness;
  bool balance_fired = false;
  for (const Diagnostic& d : ref.diagnostics) {
    if (d.rule_id == "SIWA010") witness.push_back(d);
    if (d.rule_id == "SIWA004") balance_fired = true;
  }
  if (!same_diagnostics(pieces.witness, witness)) return "witness";
  if (balance_fired == pieces.stall_free) return "stall balance";
  if (!same_diagnostics(pieces.comparable,
                        comparable_diagnostics(ref.diagnostics)))
    return "diagnostics";
  return "";
}

}  // namespace siwabench
