// insider_check v2 — the C++ tokenizer under every lint rule.
//
// The v1 linter matched regexes against a character-level "scrub" of each
// file, and that scrub desynced twice (C++14 digit separators, raw-string
// delimiters) before this rewrite. v2 lexes the file once into a token
// stream that records, for every token, its exact source spelling and its
// byte offset / line / column. Rules match token sequences, so prose in
// comments and strings can never trip them, and every finding carries a
// precise file:line:col location.
//
// The lexer is a single forward pass with no backtracking. It understands:
//   - line and block comments (kept as tokens; rules skip them with
//     IsComment()),
//   - string literals with escapes and encoding prefixes (u8"", L"", ...),
//   - raw strings with arbitrary delimiters (R"x( ... )x"),
//   - char literals vs C++14 digit separators (1'000'000, 0xBE5C'0000 lex
//     as single number tokens — the class of bug that killed the v1 scrub),
//   - header-names: after `#include`, <ftl/page_ftl.h> is ONE token,
//   - maximal-munch punctuation (::, ->, <<=, ...).
//
// Invariants (pinned by the seeded property test in tokenizer_test.cc):
//   - tokens are in source order, non-overlapping, and
//     src.substr(tok.offset, tok.text.size()) == tok.text for every token;
//   - the gaps between tokens contain only whitespace;
//   - line/col are 1-based and agree with counting '\n' up to tok.offset.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace insider::lint {

enum class TokKind {
  kIdentifier,    ///< identifiers and keywords (the lexer does not separate)
  kNumber,        ///< pp-number: integers, floats, separators, suffixes
  kString,        ///< "..." including encoding prefix; raw strings too
  kCharLit,       ///< '...' including encoding prefix
  kLineComment,   ///< // to end of line (newline excluded)
  kBlockComment,  ///< /* ... */ inclusive
  kHeaderName,    ///< <a/b.h> immediately after #include
  kPunct,         ///< everything else, maximal munch
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;        ///< exact source spelling
  std::size_t offset = 0;  ///< byte offset into the source
  std::size_t line = 0;    ///< 1-based
  std::size_t col = 0;     ///< 1-based, in bytes
};

/// Lex the whole source. Never fails: unterminated literals/comments extend
/// to end of input, and bytes that fit nothing become one-char kPunct
/// tokens, so the linter degrades gracefully on files it half-understands.
std::vector<Token> Tokenize(const std::string& src);

/// True for comment tokens — rule matchers iterate with these skipped.
inline bool IsComment(const Token& t) {
  return t.kind == TokKind::kLineComment || t.kind == TokKind::kBlockComment;
}

}  // namespace insider::lint
