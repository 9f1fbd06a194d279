// lintd: one editor client driving server::LintServer::handle_line in a
// closed loop, over four open E9-scale sessions. One operation is one
// request answered. The server gets a MetricsSink, as siwa_lintd always
// attaches one.
#include <memory>
#include <optional>
#include <unordered_map>

#include "inputs.h"
#include "layers.h"
#include "lint/render.h"
#include "obs/json.h"
#include "server/lint_server.h"
#include "syncgraph/builder.h"
#include "syncgraph/clg.h"
#include "lang/parser.h"
#include "workloads.h"

namespace siwabench {
namespace {

using siwa::lint::LintOptions;

std::string open_or_edit_line(const char* method, const std::string& uri,
                              const std::string& text) {
  return std::string("{\"method\":\"") + method + "\",\"uri\":\"" +
         siwa::obs::json::escape(uri) + "\",\"text\":\"" +
         siwa::obs::json::escape(text) + "\"}";
}

std::string diagnostics_line(const std::string& uri, const std::string& format) {
  return "{\"method\":\"diagnostics\",\"uri\":\"" +
         siwa::obs::json::escape(uri) + "\",\"format\":\"" + format + "\"}";
}

// A response as the client reads it.
struct Response {
  bool ok = false;
  std::optional<bool> certified_free;
  std::string report;  // diagnostics responses
};

Response read_response(const std::string& line) {
  Response r;
  const auto doc = siwa::obs::json::parse(line);
  if (!doc) return r;
  if (const auto* ok = doc->find("ok"); ok && ok->is_bool()) r.ok = ok->as_bool();
  if (const auto* v = doc->find("certified_free"); v && v->is_bool())
    r.certified_free = v->as_bool();
  if (const auto* v = doc->find("report"); v && v->is_string())
    r.report = v->as_string();
  return r;
}

// The cold, cache-less lint of one text (the identity contract's other
// side), kept as its verdict and the digests of its rendered reports,
// memoized by the text's digest. The traced run also needs the full
// diagnostics (`full`), which only it keeps.
struct ColdAnswer {
  std::optional<bool> certified_free;
  std::map<std::string, std::uint64_t> rendered;  // report digest by format
};

class ColdCache {
 public:
  const ColdAnswer& get(const std::string& text, const std::string& uri) {
    const std::uint64_t key = digest(text);
    auto it = answers_.find(key);
    if (it == answers_.end()) {
      const LintReference ref = product_lint(text, LintOptions{});
      const siwa::lint::FileDiagnostics file{uri, ref.diagnostics};
      ColdAnswer answer{ref.certified_free, {}};
      for (const char* format : {"json", "sarif"})
        answer.rendered[format] = digest(siwa::lint::render(
            *siwa::lint::parse_format(format), {&file, 1}));
      it = answers_.emplace(key, std::move(answer)).first;
    }
    return it->second;
  }
  const LintReference& full(const std::string& text) {
    const std::uint64_t key = digest(text);
    auto it = full_.find(key);
    if (it == full_.end())
      it = full_.emplace(key, product_lint(text, LintOptions{})).first;
    return it->second;
  }

 private:
  std::unordered_map<std::uint64_t, ColdAnswer> answers_;
  std::unordered_map<std::uint64_t, LintReference> full_;
};

// One client against one server: the sessions' current texts and
// verdicts, and the identity check run after every request.
struct Client {
  const LintdInputs in;
  ColdCache& cold;
  siwa::obs::MetricsSink sink;
  std::unique_ptr<siwa::server::LintServer> server;
  std::vector<std::string> texts;
  std::vector<std::optional<bool>> verdicts;
  std::size_t next = 0;  // request counter

  Client(LintdInputs inputs, ColdCache& cache)
      : in(std::move(inputs)), cold(cache),
        server(std::make_unique<siwa::server::LintServer>(
            LintOptions{}, siwa::obs::SinkRef{&sink})) {
    for (const ProgramInput& s : in.sessions) texts.push_back(s.text);
    verdicts.resize(texts.size());
  }

  // The session and request the client sends next: sessions in turn, each
  // walking the request block in order.
  [[nodiscard]] std::size_t session_of(std::size_t r) const {
    return r % texts.size();
  }
  [[nodiscard]] const LintdRequest& request_of(std::size_t r) const {
    return in.block[(r / texts.size()) % in.block.size()];
  }

  // Whether the server's state for session `s` matches a cold lint of its
  // text: the published report (json) and the verdict. Untimed.
  bool session_matches_cold(std::size_t s, const std::optional<bool>& verdict) {
    const ColdAnswer& c = cold.get(texts[s], in.sessions[s].name);
    if (verdict != c.certified_free) return false;
    const Response r = read_response(server->handle_line(
        diagnostics_line(in.sessions[s].name, "json")));
    return r.ok && digest(r.report) == c.rendered.at("json");
  }
};

}  // namespace

Report run_lintd(const RunConfig& config) {
  Report report;
  ColdCache cold;
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  Setups setups(kSetups, untraced_s);
  auto setup = [&] {
    auto c = std::make_unique<Client>(lintd_inputs(config.seed), cold);
    for (std::size_t s = 0; s < c->in.sessions.size(); ++s) {
      const Response r = read_response(c->server->handle_line(
          open_or_edit_line("open", c->in.sessions[s].name, c->texts[s])));
      c->verdicts[s] = r.certified_free;
      (void)c->server->handle_line(
          diagnostics_line(c->in.sessions[s].name, "json"));
    }
    return c;
  };
  const std::unique_ptr<Client> client = setups.run(setup);
  const LintdInputs& in = client->in;

  Recorder& rec = report.rec;
  std::size_t mismatches = 0;
  std::size_t certified_ops = 0;
  std::string first_failure;
  auto fail = [&](const std::string& why) {
    rec.fail();
    if (mismatches++ == 0) first_failure = why;
  };

  // One request: send, time, then check (untimed). Returns the latency.
  auto request = [&](Client& c, Trace* trace, MirrorSession* mirrors) {
    const std::size_t r = c.next++;
    const std::size_t s = c.session_of(r);
    const LintdRequest& req = c.request_of(r);
    const std::string& uri = c.in.sessions[s].name;
    const bool edit = req.kind != RequestKind::Diagnostics;
    const std::string text = edit ? apply_edit(c.texts[s], req.kind) : "";
    const std::string line =
        config.inject_malformed && r == 0 ? "{\"method\":\"edit\",\"uri\":"
        : edit ? open_or_edit_line("edit", uri, text)
               : diagnostics_line(uri, req.format);
    const double tested_before =
        static_cast<double>(c.sink.total("refined.tested"));
    const Clock::time_point t = Clock::now();
    const std::string out = c.server->handle_line(line);
    const double latency = seconds_since(t);

    const Response resp = read_response(out);
    if (!resp.ok) {
      fail(uri + ": ok:false response to a " +
           request_kind_name(req.kind) + " request");
      return latency;
    }
    if (edit) {
      c.texts[s] = text;
      c.verdicts[s] = resp.certified_free;
      if (!c.session_matches_cold(s, resp.certified_free))
        fail(uri + ": report differs from a cold lint after a " +
             std::string(request_kind_name(req.kind)) + " edit");
    } else if (digest(resp.report) !=
               c.cold.get(c.texts[s], uri).rendered.at(req.format)) {
      fail(uri + ": " + req.format + " report differs from a cold lint");
    }
    certified_ops += c.verdicts[s] == true;

    if (trace != nullptr) {
      static const char* kServerMetric[] = {
          "server.edit_comment", "server.edit_guard",
          "server.edit_structural", "server.diagnostics"};
      const std::string metric = kServerMetric[static_cast<int>(req.kind)];
      trace->add(metric + "_us", latency * 1e6);
      trace->add(metric + "_n", 1);
      trace->add("server.response_bytes", static_cast<double>(out.size()));
      const LintReference& cold = c.cold.full(c.texts[s]);
      if (edit) {
        const LintPieces pieces =
            decomposed_lint(text, LintOptions{}, *trace, &mirrors[s]);
        LintReference expected = cold;
        expected.hypotheses_tested = static_cast<std::size_t>(
            static_cast<double>(c.sink.total("refined.tested")) -
            tested_before);
        const std::string diff = compare_lint(pieces, expected);
        if (!diff.empty()) fail(uri + ": decomposition mismatch: " + diff);
      } else {
        const siwa::lint::FileDiagnostics file{uri, cold.diagnostics};
        const std::string doc = trace->time("lint.render_us", [&] {
          return siwa::lint::render(*siwa::lint::parse_format(req.format),
                                    {&file, 1});
        });
        trace->add("lint.render_bytes", static_cast<double>(doc.size()));
      }
      trace->add("lint.diagnostics",
                 static_cast<double>(cold.diagnostics.size()));
    }
    return latency;
  };

  // Checked pass: the opens and one full cycle of the request block on
  // every session, each checked against a cold lint. Its verdict shares
  // are the workload's certified_free_share (a deterministic function of
  // the seed).
  for (std::size_t s = 0; s < in.sessions.size(); ++s) {
    ++rec.attempted;
    if (!client->session_matches_cold(s, client->verdicts[s]))
      fail(in.sessions[s].name + ": open report differs from a cold lint");
  }
  const std::size_t cycle = in.sessions.size() * in.block.size();
  for (std::size_t i = 0; i < cycle; ++i) {
    (void)request(*client, nullptr, nullptr);
    ++rec.attempted;
  }
  report.certified_free_share =
      static_cast<double>(certified_ops) / static_cast<double>(cycle);

  double sync_nodes = 0, clg_nodes = 0;
  for (const ProgramInput& s : in.sessions) {
    siwa::DiagnosticSink sink;
    const auto program = siwa::lang::parse_program(s.text, sink);
    if (!program) continue;
    const siwa::sg::SyncGraph graph = siwa::sg::build_sync_graph(*program);
    sync_nodes += static_cast<double>(graph.node_count());
    clg_nodes += static_cast<double>(siwa::sg::Clg(graph).node_count());
  }
  const double sessions = static_cast<double>(in.sessions.size());
  auto share = [&](RequestKind kind) {
    double n = 0;
    for (const LintdRequest& r : in.block) n += r.kind == kind;
    return n / static_cast<double>(in.block.size());
  };
  report.properties = {
      {"input.sessions", "count", sessions},
      {"input.edit_comment_share", "ratio", share(RequestKind::Docstring)},
      {"input.edit_guard_share", "ratio", share(RequestKind::GuardSwap)},
      {"input.edit_structural_share", "ratio", share(RequestKind::Rename)},
      {"input.diagnostics_share", "ratio", share(RequestKind::Diagnostics)},
      {"input.shared_conditions_share", "ratio", 1.0},
      {"input.loops_share", "ratio", 0.0},
      {"input.certified_free_share", "ratio", report.certified_free_share},
      {"input.sync_nodes", "count", sync_nodes / sessions},
      {"input.clg_nodes", "count", clg_nodes / sessions},
  };
  report.notes.push_back("checked pass: " + std::to_string(in.sessions.size()) +
                         " opens and " + std::to_string(cycle) +
                         " requests, each compared with a cold lint; " +
                         std::to_string(rec.failed) + " failed");

  // A cycle returns every session to its opening text (see lintd_inputs),
  // so the checked pass has computed every cold answer the run compares
  // with.
  report.memory.start();

  // Timed run, in whole cycles of the request block over every session.
  const Clock::time_point start = Clock::now();
  while (setups.running(start)) {
    (void)setups.between_rounds(start, report.memory, setup);
    rec.begin_round();
    for (std::size_t i = 0; i < cycle; ++i)
      rec.sample(request(*client, nullptr, nullptr));
    rec.end_round();
  }
  report.notes.push_back(
      "timed run: " + std::to_string(rec.ops) + " requests, " +
      std::to_string(mismatches) + " failures" +
      (first_failure.empty() ? "" : " (first: " + first_failure + ")"));
  report.setup_s = setups.times;
  if (!config.trace) {
    report.correct = rec.failed == 0;
    return report;
  }

  // Traced half: a fresh server and its mirror sessions; the opens are
  // part of the traced work (server.open_us).
  Trace& trace = report.trace;
  Client traced(in, cold);
  std::vector<MirrorSession> mirrors(in.sessions.size());
  double busy = 0;
  const std::size_t failed_before = rec.failed;
  const Clock::time_point traced_start = Clock::now();
  for (std::size_t s = 0; s < in.sessions.size(); ++s) {
    const std::string& uri = in.sessions[s].name;
    const double tested_before =
        static_cast<double>(traced.sink.total("refined.tested"));
    const Clock::time_point t = Clock::now();
    const std::string out = traced.server->handle_line(
        open_or_edit_line("open", uri, traced.texts[s]));
    trace.add("server.open_us", seconds_since(t) * 1e6);
    trace.add("server.open_n", 1);
    const LintPieces pieces =
        decomposed_lint(traced.texts[s], LintOptions{}, trace, &mirrors[s]);
    busy += seconds_since(t);
    traced.verdicts[s] = read_response(out).certified_free;
    LintReference expected = cold.full(traced.texts[s]);
    expected.hypotheses_tested = static_cast<std::size_t>(
        static_cast<double>(traced.sink.total("refined.tested")) -
        tested_before);
    if (const std::string diff = compare_lint(pieces, expected); !diff.empty())
      fail(uri + ": decomposition mismatch on open: " + diff);
  }
  while (seconds_since(traced_start) < config.seconds - untraced_s) {
    for (std::size_t i = 0; i < cycle; ++i) {
      const Clock::time_point t = Clock::now();
      (void)request(traced, &trace, mirrors.data());
      busy += seconds_since(t);
      report.traced_ops += 1;
      ++rec.attempted;
    }
  }
  report.traced_ops_per_s = busy > 0 ? report.traced_ops / busy : 0;
  const double reuses = static_cast<double>(
      traced.sink.total("lint.cache.context_reuses"));
  const double rebuilds = static_cast<double>(
      traced.sink.total("lint.cache.context_rebuilds"));
  const double hits = static_cast<double>(
      traced.sink.total("lint.cache.certify_hits"));
  const double misses = static_cast<double>(
      traced.sink.total("lint.cache.certify_misses"));
  trace.add("lint.cache.context_reuses", reuses);
  trace.add("lint.cache.context_lookups", reuses + rebuilds);
  trace.add("lint.cache.certify_hits", hits);
  trace.add("lint.cache.certify_lookups", hits + misses);
  report.notes.push_back(
      "traced run: " +
      std::to_string(static_cast<std::uint64_t>(report.traced_ops)) +
      " requests decomposed, " + std::to_string(rec.failed - failed_before) +
      " failures or decomposition mismatches");
  report.correct = rec.failed == 0;
  return report;
}

}  // namespace siwabench
