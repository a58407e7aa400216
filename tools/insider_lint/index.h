// insider_check v2 — per-translation-unit index over the token stream.
//
// One pass over a file's tokens extracts the structure the semantic rules
// need and regexes could not see:
//
//   - include edges (spelling + line + quoted/angled), feeding both the
//     include-cycle DFS and the layer-dag architecture check;
//   - function declarators with their parameter lists and brace-matched
//     bodies (token ranges), the scope unit for `lane-sync`
//     (drain-before-raw-read inside one body) and `simtime-cast` (names
//     declared SimTime in the enclosing function).
//
// Everything here is heuristic token-pattern matching, tuned to this
// repository's idiom and pinned by the clean-tree gate: if the heuristics
// ever misread real code, the gate turns red, not silent.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tokenizer.h"

namespace insider::lint {

struct IncludeEdge {
  std::string spelling;  ///< "ftl/page_ftl.h" or <vector>
  std::size_t line = 0;
  bool angled = false;
};

struct FunctionInfo {
  /// Token indices of the parameter-list parens in TuIndex::tokens.
  std::size_t param_begin = 0;
  std::size_t param_end = 0;
  /// Token indices of the body braces in TuIndex::tokens; body_end == 0
  /// means declaration only (no body in this TU).
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

struct TuIndex {
  std::vector<Token> tokens;  ///< comments included
  std::vector<IncludeEdge> includes;
  std::vector<FunctionInfo> functions;
};

TuIndex BuildIndex(const std::string& content);

/// Index of the first non-comment token at or after `from`; tokens.size()
/// if none.
std::size_t NextCode(const std::vector<Token>& tokens, std::size_t from);

/// Given tokens[open] == "{" / "(" / "<", the index of its matching closer
/// (brace/paren only nest with themselves). Returns tokens.size() when
/// unbalanced.
std::size_t MatchingClose(const std::vector<Token>& tokens, std::size_t open);

}  // namespace insider::lint
