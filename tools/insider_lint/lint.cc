#include "lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "index.h"
#include "tokenizer.h"

namespace insider::lint {
namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}
bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

/// The deterministic substrate itself is the one place allowed to name the
/// banned primitives (it wraps or documents them).
bool TimeRngExempt(const std::string& path) {
  return Contains(path, "src/common/time") || Contains(path, "src/common/rng");
}

/// raw-output covers simulator code only: anything under src/ except the
/// logging substrate. CLIs (tools/, bench/, examples/) print by design.
bool RawOutputApplies(const std::string& path) {
  return Contains(path, "src/") && !Contains(path, "src/common/log");
}

/// Thread primitives live only in the channel-sharded execution runtime,
/// its arena, and the logging substrate's level atomic.
bool RawThreadExempt(const std::string& path) {
  return Contains(path, "src/io/shard_") ||
         Contains(path, "src/common/arena") || Contains(path, "src/common/log");
}

/// lane-sync covers simulator code that consumes NAND state. The shard
/// runtime and the flash array itself own the lane discipline (PeekPage
/// and FlashArray's accessors drain internally).
bool LaneSyncApplies(const std::string& path) {
  return Contains(path, "src/") && !Contains(path, "src/io/shard_") &&
         !Contains(path, "src/nand/");
}

/// The sanctioned cast helpers live in src/common/time.*; src/common/rng
/// hosts the substrate's own SimTime bridge (Rng::BelowTime); src/obs
/// renders SimTime for humans and is allowed its own conversions.
bool SimtimeCastExempt(const std::string& path) {
  return Contains(path, "src/common/time") ||
         Contains(path, "src/common/rng") || Contains(path, "src/obs");
}

bool IsHeaderPath(const std::string& path) {
  return path.size() > 2 &&
         (path.rfind(".h") == path.size() - 2 ||
          (path.size() > 4 && path.rfind(".hpp") == path.size() - 4));
}

/// A declared uint64_t whose name reads as a point in time.
bool NameLooksLikeTimestamp(const std::string& raw_name) {
  std::string n = Lower(raw_name);
  while (!n.empty() && n.back() == '_') n.pop_back();  // member suffix
  if (n == "now" || n == "when") return true;
  if (n.size() >= 3 && n.rfind("_at") == n.size() - 3) return true;
  return Contains(n, "time") || Contains(n, "deadline") ||
         Contains(n, "horizon") || Contains(n, "timestamp");
}

// ---------------------------------------------------------------------------
// Rule implementations. Each appends findings; EvaluateFile sorts them.
// ---------------------------------------------------------------------------

struct FileCtx {
  const std::string& path;
  const TuIndex& index;
};

void Emit(std::vector<Finding>& out, const FileCtx& ctx, const Token& at,
          const char* rule, std::string message) {
  out.push_back({ctx.path, at.line, at.col, rule, std::move(message)});
}

/// tokens[i] is an identifier: true when the previous two code tokens are
/// `std ::` (or just `:: member` when qualified deeper — the check is for
/// the immediate `NS :: ident` shape).
bool QualifiedBy(const std::vector<Token>& toks, std::size_t i,
                 const char* ns) {
  std::size_t p = i;
  while (p > 0 && IsComment(toks[--p])) {
  }
  if (p >= toks.size() || !IsPunct(toks[p], "::")) return false;
  while (p > 0 && IsComment(toks[--p])) {
  }
  return p < toks.size() && IsIdent(toks[p], ns);
}

bool NextIsCall(const std::vector<Token>& toks, std::size_t i) {
  std::size_t n = NextCode(toks, i + 1);
  return n < toks.size() && IsPunct(toks[n], "(");
}

void RuleWallClock(const FileCtx& ctx, std::vector<Finding>& out) {
  if (TimeRngExempt(ctx.path)) return;
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool clock_type =
        t.text == "system_clock" && QualifiedBy(toks, i, "chrono");
    const bool clock_call = (t.text == "time" || t.text == "gettimeofday") &&
                            NextIsCall(toks, i);
    if (clock_type || clock_call) {
      Emit(out, ctx, t, "wall-clock",
           "wall-clock access outside src/common/time; simulation time must "
           "flow through SimTime");
    }
  }
}

void RuleUnseededRng(const FileCtx& ctx, std::vector<Finding>& out) {
  if (TimeRngExempt(ctx.path)) return;
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool device =
        t.text == "random_device" && QualifiedBy(toks, i, "std");
    const bool call =
        (t.text == "rand" || t.text == "srand") && NextIsCall(toks, i);
    if (device || call) {
      Emit(out, ctx, t, "unseeded-rng",
           "unseeded randomness outside src/common/rng; use the seeded "
           "insider::Rng");
    }
  }
}

void RuleAssertOnStatus(const FileCtx& ctx, std::vector<Finding>& out) {
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "assert")) continue;
    std::size_t open = NextCode(toks, i + 1);
    if (open >= toks.size() || !IsPunct(toks[open], "(")) continue;
    std::size_t close = MatchingClose(toks, open);
    bool status = false;
    for (std::size_t j = open + 1; j < close && j < toks.size(); ++j) {
      const Token& a = toks[j];
      if (a.kind == TokKind::kIdentifier &&
          (Contains(a.text, "Status") ||
           (a.text.size() >= 6 &&
            a.text.rfind("status") == a.text.size() - 6))) {
        status = true;
        break;
      }
      if (IsIdent(a, "ok") && NextIsCall(toks, j) && j > 0) {
        std::size_t p = j;
        while (p > 0 && IsComment(toks[--p])) {
        }
        if (IsPunct(toks[p], ".") || IsPunct(toks[p], "->")) {
          status = true;
          break;
        }
      }
    }
    if (status) {
      Emit(out, ctx, toks[i], "assert-on-status",
           "assert() on a status value; media errors are modeled outcomes — "
           "return a status instead");
    }
  }
}

void RuleNakedTimestamp(const FileCtx& ctx, std::vector<Finding>& out) {
  if (TimeRngExempt(ctx.path)) return;
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "uint64_t")) continue;
    std::size_t j = NextCode(toks, i + 1);
    if (j < toks.size() && IsIdent(toks[j], "const")) j = NextCode(toks, j + 1);
    if (j < toks.size() && IsPunct(toks[j], "&")) j = NextCode(toks, j + 1);
    if (j >= toks.size() || toks[j].kind != TokKind::kIdentifier) continue;
    if (NameLooksLikeTimestamp(toks[j].text)) {
      Emit(out, ctx, toks[j], "naked-timestamp",
           "uint64_t '" + toks[j].text +
               "' reads as a point in time; declare it SimTime");
    }
  }
}

void RuleRawOutput(const FileCtx& ctx, std::vector<Finding>& out) {
  if (!RawOutputApplies(ctx.path)) return;
  static const std::set<std::string> kStdio = {
      "printf", "fprintf", "vprintf", "vfprintf",
      "puts",   "fputs",   "fputc",   "putchar"};
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool stream =
        (t.text == "cout" || t.text == "cerr" || t.text == "clog") &&
        QualifiedBy(toks, i, "std");
    const bool stdio = kStdio.count(t.text) != 0 && NextIsCall(toks, i);
    if (stream || stdio) {
      Emit(out, ctx, t, "raw-output",
           "direct console output in simulator code; route diagnostics "
           "through INSIDER_LOG (src/common/log.h)");
    }
  }
}

void RuleRawThread(const FileCtx& ctx, std::vector<Finding>& out) {
  if (RawThreadExempt(ctx.path)) return;
  static const std::set<std::string> kPrimitives = {
      "jthread",      "thread",
      "shared_mutex", "recursive_mutex",
      "timed_mutex",  "mutex",
      "condition_variable_any", "condition_variable"};
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (!QualifiedBy(toks, i, "std")) continue;
    if (kPrimitives.count(t.text) != 0 || t.text.rfind("atomic", 0) == 0) {
      Emit(out, ctx, t, "raw-thread",
           "raw thread primitive outside the sharded execution runtime "
           "(src/io/shard_*); simulation code is single-threaded by design "
           "— route parallel work through io::ShardRuntime/ParallelFor");
    }
  }
}

void RulePragmaOnce(const FileCtx& ctx, std::vector<Finding>& out) {
  if (!IsHeaderPath(ctx.path)) return;
  const auto& toks = ctx.index.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsPunct(toks[i], "#")) continue;
    std::size_t a = NextCode(toks, i + 1);
    if (a >= toks.size() || !IsIdent(toks[a], "pragma")) continue;
    std::size_t b = NextCode(toks, a + 1);
    if (b < toks.size() && IsIdent(toks[b], "once")) return;
  }
  out.push_back(
      {ctx.path, 0, 0, "pragma-once", "header is missing #pragma once"});
}

/// Module of a path under src/ ("src/ftl/page_ftl.cc" -> "ftl"), or "".
std::string ModuleOf(const std::string& path) {
  std::size_t pos = path.rfind("src/");
  if (pos == std::string::npos) return "";
  std::size_t begin = pos + 4;
  std::size_t slash = path.find('/', begin);
  if (slash == std::string::npos) return "";
  return path.substr(begin, slash - begin);
}

void RuleLayerDag(const FileCtx& ctx, std::vector<Finding>& out) {
  const std::string mod = ModuleOf(ctx.path);
  const auto& table = LayerAllowedDeps();
  auto it = table.find(mod);
  if (it == table.end()) return;
  for (const IncludeEdge& inc : ctx.index.includes) {
    if (inc.angled) continue;
    std::size_t slash = inc.spelling.find('/');
    if (slash == std::string::npos) continue;
    const std::string dep = inc.spelling.substr(0, slash);
    if (dep == mod || table.count(dep) == 0) continue;
    if (it->second.count(dep) == 0) {
      out.push_back(
          {ctx.path, inc.line, 1, "layer-dag",
           "include of \"" + inc.spelling + "\" violates the layer DAG: "
           "module '" + mod + "' may not depend on '" + dep +
           "' (DESIGN.md §14)"});
    }
  }
}

void RuleLaneSync(const FileCtx& ctx, std::vector<Finding>& out) {
  if (!LaneSyncApplies(ctx.path)) return;
  const auto& toks = ctx.index.tokens;
  for (const FunctionInfo& fn : ctx.index.functions) {
    if (fn.body_end == 0) continue;
    bool drained = false;
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (IsComment(t)) continue;
      if (t.kind == TokKind::kIdentifier &&
          (t.text == "SyncAllLanes" || t.text == "SyncLane") &&
          NextIsCall(toks, i)) {
        drained = true;
        continue;
      }
      if ((IsPunct(t, ".") || IsPunct(t, "->")) && i + 1 < fn.body_end) {
        std::size_t r = NextCode(toks, i + 1);
        if (r < fn.body_end && IsIdent(toks[r], "Read") &&
            NextIsCall(toks, r) && !drained) {
          Emit(out, ctx, toks[r], "lane-sync",
               "raw NAND content read without a preceding lane drain in "
               "this function; call SyncAllLanes()/SyncLane() first or use "
               "PeekPage()");
        }
      }
    }
  }
}

const std::set<std::string>& RawIntTypeTokens() {
  static const std::set<std::string> kTypes = {
      "unsigned", "signed",   "long",     "int",      "short",
      "size_t",   "int8_t",   "int16_t",  "int32_t",  "int64_t",
      "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "intmax_t",
      "uintmax_t", "ptrdiff_t"};
  return kTypes;
}

void RuleSimtimeCast(const FileCtx& ctx, std::vector<Finding>& out) {
  if (SimtimeCastExempt(ctx.path)) return;
  const auto& toks = ctx.index.tokens;

  // Names declared SimTime, per function body (params + locals), so the
  // SimTime->raw direction can recognize `static_cast<uint64_t>(now)`.
  auto collect_simtime_names = [&](std::size_t begin, std::size_t end,
                                   std::set<std::string>& names) {
    for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
      if (!IsIdent(toks[i], "SimTime")) continue;
      std::size_t j = NextCode(toks, i + 1);
      if (j < end && IsPunct(toks[j], "&")) j = NextCode(toks, j + 1);
      if (j < end && toks[j].kind == TokKind::kIdentifier) {
        names.insert(toks[j].text);
      }
    }
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "static_cast")) continue;
    std::size_t lt = NextCode(toks, i + 1);
    if (lt >= toks.size() || !IsPunct(toks[lt], "<")) continue;
    // The target type of every cast in this tree is short; scan to the
    // first '>' collecting its tokens.
    std::vector<std::string> type_tokens;
    std::size_t gt = NextCode(toks, lt + 1);
    while (gt < toks.size() && !IsPunct(toks[gt], ">") &&
           type_tokens.size() < 8) {
      type_tokens.push_back(toks[gt].text);
      gt = NextCode(toks, gt + 1);
    }
    if (gt >= toks.size() || !IsPunct(toks[gt], ">")) continue;
    std::size_t open = NextCode(toks, gt + 1);
    if (open >= toks.size() || !IsPunct(toks[open], "(")) continue;

    const bool to_simtime =
        !type_tokens.empty() && type_tokens.back() == "SimTime" &&
        std::all_of(type_tokens.begin(), type_tokens.end() - 1,
                    [](const std::string& s) {
                      return s == "insider" || s == "::";
                    });
    if (to_simtime) {
      Emit(out, ctx, toks[i], "simtime-cast",
           "static_cast to SimTime outside src/common/time; use "
           "Microseconds()/CostOf()/TruncateMicros() (src/common/time.h)");
      continue;
    }

    bool pure_int = !type_tokens.empty();
    bool has_type = false;
    for (const std::string& s : type_tokens) {
      if (RawIntTypeTokens().count(s) != 0) {
        has_type = true;
      } else if (s != "std" && s != "::" && s != "const") {
        pure_int = false;
      }
    }
    if (!pure_int || !has_type) continue;
    // Cast argument starts with a name declared SimTime in the enclosing
    // function (params or body)?
    std::size_t arg = NextCode(toks, open + 1);
    if (arg >= toks.size() || toks[arg].kind != TokKind::kIdentifier) {
      continue;
    }
    for (const FunctionInfo& fn : ctx.index.functions) {
      if (fn.body_end == 0 || i <= fn.body_begin || i >= fn.body_end) {
        continue;
      }
      std::set<std::string> names;
      collect_simtime_names(fn.param_begin, fn.param_end, names);
      collect_simtime_names(fn.body_begin, fn.body_end, names);
      if (names.count(toks[arg].text) != 0) {
        Emit(out, ctx, toks[i], "simtime-cast",
             "static_cast from SimTime to a raw integer; use RawMicros() "
             "(src/common/time.h)");
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Orchestration.
// ---------------------------------------------------------------------------

std::vector<Finding> EvaluateFile(const std::string& path,
                                  const TuIndex& index,
                                  const Options& options) {
  auto enabled = [&](const char* rule) {
    return options.rules.empty() || options.rules.count(rule) != 0;
  };

  FileCtx ctx{path, index};
  std::vector<Finding> findings;
  if (enabled("wall-clock")) RuleWallClock(ctx, findings);
  if (enabled("unseeded-rng")) RuleUnseededRng(ctx, findings);
  if (enabled("assert-on-status")) RuleAssertOnStatus(ctx, findings);
  if (enabled("naked-timestamp")) RuleNakedTimestamp(ctx, findings);
  if (enabled("raw-output")) RuleRawOutput(ctx, findings);
  if (enabled("raw-thread")) RuleRawThread(ctx, findings);
  if (enabled("pragma-once")) RulePragmaOnce(ctx, findings);
  if (enabled("layer-dag")) RuleLayerDag(ctx, findings);
  if (enabled("lane-sync")) RuleLaneSync(ctx, findings);
  if (enabled("simtime-cast")) RuleSimtimeCast(ctx, findings);

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.col, a.rule) <
                     std::tie(b.line, b.col, b.rule);
            });
  return findings;
}

}  // namespace

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> kRules = {
      {"wall-clock",
       "wall-clock access outside src/common/time; use SimTime"},
      {"unseeded-rng",
       "unseeded randomness outside src/common/rng; use the seeded Rng"},
      {"assert-on-status",
       "assert() on a status value; return statuses instead"},
      {"naked-timestamp",
       "uint64_t declaration named like a point in time; use SimTime"},
      {"raw-output",
       "direct console output in simulator code; use INSIDER_LOG"},
      {"raw-thread",
       "thread primitive outside the sharded runtime (src/io/shard_*)"},
      {"pragma-once", "header missing #pragma once"},
      {"include-cycle", "quoted project includes must form a DAG"},
      {"layer-dag",
       "include violates the module layering table (DESIGN.md §14)"},
      {"lane-sync",
       "raw NAND content read without a lane drain in the same function"},
      {"simtime-cast",
       "SimTime <-> raw integer static_cast outside the sanctioned helpers"},
  };
  return kRules;
}

bool IsKnownRule(const std::string& id) {
  for (const RuleInfo& r : AllRules()) {
    if (r.id == id) return true;
  }
  return false;
}

const std::map<std::string, std::set<std::string>>& LayerAllowedDeps() {
  // The table in DESIGN.md §14.2 (LayerTableMatchesDesignDoc pins them
  // equal); update its diagram with it.
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"common", {}},
      {"core", {"common"}},
      {"obs", {"common", "core"}},
      {"nand", {"common", "obs"}},
      {"version", {"common", "nand", "obs"}},
      {"ftl", {"common", "nand", "obs", "version"}},
      {"io", {"common", "nand", "obs", "version"}},
      {"fs", {"common"}},
      {"workload", {"common", "io", "obs"}},
      {"host",
       {"common", "core", "fs", "ftl", "io", "nand", "obs", "version",
        "workload"}},
  };
  return kDeps;
}

std::string Format(const Finding& finding) {
  std::ostringstream out;
  out << finding.file;
  if (finding.line != 0) {
    out << ':' << finding.line;
    if (finding.col != 0) out << ':' << finding.col;
  }
  out << ": [" << finding.rule << "] " << finding.message;
  return out.str();
}

std::vector<Finding> LintSource(const std::string& path_label,
                                const std::string& content,
                                const Options& options) {
  return EvaluateFile(path_label, BuildIndex(content), options);
}

std::vector<Finding> CheckIncludeCycles(
    const std::vector<std::pair<std::string, std::vector<IncludeEdge>>>&
        headers) {
  std::map<std::string, std::vector<std::string>> edges;
  std::set<std::string> known;
  for (const auto& [name, _] : headers) known.insert(name);
  for (const auto& [name, includes] : headers) {
    for (const IncludeEdge& inc : includes) {
      if (!inc.angled && known.count(inc.spelling) != 0) {
        edges[name].push_back(inc.spelling);
      }
    }
  }

  // Tricolor DFS; report the first back edge's cycle.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<Finding> findings;
  std::vector<std::string> stack;
  std::function<bool(const std::string&)> visit =
      [&](const std::string& node) -> bool {
    color[node] = 1;
    stack.push_back(node);
    for (const std::string& dep : edges[node]) {
      if (color[dep] == 1) {
        std::ostringstream chain;
        auto it = std::find(stack.begin(), stack.end(), dep);
        for (; it != stack.end(); ++it) chain << *it << " -> ";
        chain << dep;
        findings.push_back(
            {dep, 0, 0, "include-cycle", "include cycle: " + chain.str()});
        return true;
      }
      if (color[dep] == 0 && visit(dep)) return true;
    }
    stack.pop_back();
    color[node] = 2;
    return false;
  };
  for (const auto& [name, _] : headers) {
    if (color[name] == 0 && visit(name)) break;
  }
  return findings;
}

std::vector<Finding> LintTree(const std::vector<std::filesystem::path>& roots,
                              const Options& options) {
  namespace fs = std::filesystem;
  std::vector<Finding> findings;
  std::vector<std::pair<std::string, std::vector<IncludeEdge>>> headers;
  static const std::set<std::string> kExtensions = {".h", ".hpp", ".cc",
                                                    ".cpp", ".cxx"};
  for (const fs::path& root : roots) {
    if (!fs::exists(root)) {
      findings.push_back({root.generic_string(), 0, 0, "missing-root",
                          "lint root does not exist"});
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string label = entry.path().generic_string();
      // Skip fixture directories nested under a scanned root (they hold
      // deliberately violating files) — but allow pointing a root directly
      // AT a testdata tree, which is how the negative CI check runs.
      std::error_code ec;
      const std::string rel =
          fs::relative(entry.path(), root, ec).generic_string();
      if (!ec && Contains(rel, "testdata")) continue;
      if (!kExtensions.count(entry.path().extension().string())) continue;

      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      TuIndex index = BuildIndex(buf.str());
      std::vector<Finding> file_findings = EvaluateFile(label, index, options);
      findings.insert(findings.end(),
                      std::make_move_iterator(file_findings.begin()),
                      std::make_move_iterator(file_findings.end()));
      // The include-cycle pass reuses this index's edges: each file is
      // lexed exactly once per tree scan.
      std::size_t pos = label.rfind("src/");
      if (IsHeaderPath(label) && pos != std::string::npos) {
        headers.emplace_back(label.substr(pos + 4), std::move(index.includes));
      }
    }
  }

  if (options.rules.empty() || options.rules.count("include-cycle") != 0) {
    std::vector<Finding> cycles = CheckIncludeCycles(headers);
    findings.insert(findings.end(), cycles.begin(), cycles.end());
  }
  return findings;
}

}  // namespace insider::lint
