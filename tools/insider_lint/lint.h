// insider_check v2 — project-specific semantic lint for the SSD-Insider tree.
//
// The simulator's results are only reproducible if every component runs on
// the deterministic substrate: virtual SimTime microseconds, the seeded
// SplitMix64 Rng, one totally-ordered event stream and a layered module
// graph. Generic linters cannot know these rules, and the compiler cannot
// see them. v2 lexes each file into a token stream (tokenizer.h), builds a
// per-TU structural index (index.h — include edges, function declarators,
// brace-matched bodies), and matches rules against that. What the type
// system can enforce is not a lint rule: the status types and Try* calls are
// [[nodiscard]] under -Werror=unused-result (tests/compile_fail/ pins it),
// and every FTL mutation opens one PageFtl::MutationScope that both flushes
// the journal and audits (MutationScopeTest in checkpoint_journal_test.cc).
//
// Rules (ids as printed and as accepted by --rule=; see AllRules()):
//
//   wall-clock         std::chrono::system_clock / time() / gettimeofday()
//                      outside src/common/time.* — all simulation time must
//                      flow through SimTime.
//   unseeded-rng       rand() / srand() / std::random_device outside
//                      src/common/rng.* — randomness must come from the
//                      seeded Rng so runs replay bit-for-bit.
//   assert-on-status   assert() whose condition inspects a status value.
//                      Media errors are modeled outcomes — return them.
//   naked-timestamp    uint64_t declarations whose name reads as a point in
//                      time; timestamps must be SimTime.
//   raw-output         std::cout / stdio output in simulator code (src/)
//                      outside src/common/log.* — use INSIDER_LOG.
//   raw-thread         std::thread / mutex / atomic outside the sharded
//                      execution runtime (src/io/shard_*), its arena, and
//                      the log substrate's level atomic.
//   pragma-once        every header must carry #pragma once.
//   include-cycle      quoted project includes must form a DAG.
//   layer-dag          includes between src/ modules must follow the
//                      architecture DAG in DESIGN.md §14 (the table in
//                      LayerAllowedDeps() is the machine-readable copy).
//   lane-sync          outside src/io/shard_* and src/nand/, a raw NAND
//                      content read (`.Read(` / `BlockAt(...).Read(`) must
//                      be preceded in the same function body by a lane
//                      drain (SyncAllLanes / SyncLane). PeekPage self-syncs
//                      and is the sanctioned accessor for single reads.
//   simtime-cast       static_cast between SimTime and raw integer types
//                      outside src/common/time.* and src/obs/ — use the
//                      sanctioned helpers in src/common/time.h
//                      (CostOf / TruncateMicros / RawMicros).
//
// There is no suppression syntax: an offender is fixed, not silenced.
#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "index.h"

namespace insider::lint {

struct Finding {
  std::string file;      ///< path as given to the linter
  std::size_t line = 0;  ///< 1-based; 0 for whole-file findings
  std::size_t col = 0;   ///< 1-based; 0 when unknown
  std::string rule;      ///< rule id, e.g. "wall-clock"
  std::string message;
};

struct RuleInfo {
  std::string id;
  std::string summary;  ///< one line, shown by --list-rules
};

/// The registry: every rule the engine can emit, in display order.
const std::vector<RuleInfo>& AllRules();

/// True if `id` names a registered rule.
bool IsKnownRule(const std::string& id);

/// The architecture-layering table enforced by `layer-dag`: module name ->
/// modules it may include. Mirrors the table in DESIGN.md §14; a module
/// may always include itself.
const std::map<std::string, std::set<std::string>>& LayerAllowedDeps();

struct Options {
  /// Rule ids to run; empty means all. Unknown ids are the caller's error
  /// (main.cc rejects them before building Options).
  std::set<std::string> rules;
};

/// "path:line:col: [rule] message" (col omitted when 0, line when 0).
std::string Format(const Finding& finding);

/// Lint one file's content in isolation (every rule but include-cycle).
std::vector<Finding> LintSource(const std::string& path_label,
                                const std::string& content,
                                const Options& options = {});

/// Cross-file pass: detect a cycle among quoted project includes.
/// `headers` maps include-spelling (e.g. "ftl/page_ftl.h") to the include
/// edges of that header's index.
std::vector<Finding> CheckIncludeCycles(
    const std::vector<std::pair<std::string, std::vector<IncludeEdge>>>&
        headers);

/// Walk the given roots (skipping any path containing "testdata"), lint
/// every C++ source/header, then check the include graph over headers
/// found under "src".
std::vector<Finding> LintTree(const std::vector<std::filesystem::path>& roots,
                              const Options& options = {});

}  // namespace insider::lint
