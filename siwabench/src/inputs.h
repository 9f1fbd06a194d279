// Seeded input generation for the four workloads. Every function here is
// a pure function of its seed: the same seed yields byte-identical inputs,
// which the self-tests pin down. The program under test only ever sees the
// generated text (MiniAda source, serialized sync graphs, jsonl requests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace siwabench {

// One MiniAda program of the corpus or deep workload.
struct ProgramInput {
  std::string name;    // display path, also the SARIF artifact URI
  std::string family;  // generator family
  std::string text;    // MiniAda source
  std::size_t size = 0;      // deep: pattern size parameter
  bool deadlocking = false;  // deep: the generator's own variant flag
};

// ~1k programs over six gen::random_program families (straight-line,
// branching, stall-fodder, loops, shared conditions, medium).
[[nodiscard]] std::vector<ProgramInput> corpus_inputs(std::uint64_t seed);

// gen/patterns.h families at seeded sizes of 48-128 rendezvous pairs:
// token ring, barrier, client-server and ordered philosophers, plus the
// deadlocking variants of the three families that have one.
[[nodiscard]] std::vector<ProgramInput> deep_inputs(std::uint64_t seed);

// lintd: open sessions plus one block of the request mix, replayed
// round-robin over the sessions by the workload.
enum class RequestKind { Docstring, GuardSwap, Rename, Diagnostics };
[[nodiscard]] const char* request_kind_name(RequestKind kind);

struct LintdRequest {
  RequestKind kind = RequestKind::Docstring;
  std::string format;  // diagnostics requests: "sarif" or "json"
};

struct LintdInputs {
  std::vector<ProgramInput> sessions;  // name = uri, text = opening text
  std::vector<LintdRequest> block;     // fixed shares, seeded order
};

[[nodiscard]] LintdInputs lintd_inputs(std::uint64_t seed);

// The edit a lintd request applies to a session's current text (pure; a
// docstring edit advances the cursor, a guard swap and a rename toggle).
[[nodiscard]] std::string apply_edit(const std::string& text, RequestKind kind);

// farm: 256 files, serialized sync graphs (three quarters) and MiniAda
// programs (one quarter).
struct FarmFile {
  std::string name;  // file name inside the corpus directory
  bool mada = false;
  std::string text;
};

[[nodiscard]] std::vector<FarmFile> farm_inputs(std::uint64_t seed);

}  // namespace siwabench
