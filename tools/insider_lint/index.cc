#include "index.h"

#include <set>

namespace insider::lint {
namespace {

const std::set<std::string>& StatementKeywords() {
  static const std::set<std::string> kWords = {
      "if",     "for",    "while",   "switch",     "return",   "delete",
      "throw",  "case",   "goto",    "do",         "else",     "new",
      "sizeof", "co_return", "co_await", "static_cast", "const_cast",
      "reinterpret_cast", "dynamic_cast", "using", "typedef", "break",
      "continue", "static_assert", "catch", "try", "operator",
  };
  return kWords;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Index of the previous non-comment token before `from`; npos-like
/// tokens.size() if none.
std::size_t PrevCode(const std::vector<Token>& tokens, std::size_t from) {
  while (from > 0) {
    --from;
    if (!IsComment(tokens[from])) return from;
  }
  return tokens.size();
}

}  // namespace

std::size_t NextCode(const std::vector<Token>& tokens, std::size_t from) {
  while (from < tokens.size() && IsComment(tokens[from])) ++from;
  return from;
}

std::size_t MatchingClose(const std::vector<Token>& tokens,
                          std::size_t open) {
  if (open >= tokens.size()) return tokens.size();
  const std::string& o = tokens[open].text;
  const char* close = o == "{" ? "}" : o == "(" ? ")" : o == "[" ? "]" : "";
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (IsComment(t)) continue;
    if (t.text == o) {
      ++depth;
    } else if (t.text == close) {
      if (--depth == 0) return i;
    }
  }
  return tokens.size();
}

namespace {

/// Starting right after a constructor-initializer ':', find the body '{'.
/// Brace-inits in the list (`x_{1}`) open a brace whose previous token is
/// an identifier or '>'; the body brace follows ')' / '}' / the ':'.
std::size_t BodyBraceAfterInitList(const std::vector<Token>& tokens,
                                   std::size_t from) {
  int paren = 0;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (IsComment(t)) continue;
    if (IsPunct(t, "(")) ++paren;
    if (IsPunct(t, ")")) --paren;
    if (IsPunct(t, "{") && paren == 0) {
      std::size_t p = PrevCode(tokens, i);
      bool brace_init = p != tokens.size() &&
                        (tokens[p].kind == TokKind::kIdentifier ||
                         IsPunct(tokens[p], ">"));
      if (!brace_init) return i;
      std::size_t end = MatchingClose(tokens, i);
      if (end >= tokens.size()) return tokens.size();
      i = end;
    }
    if (IsPunct(t, ";") && paren == 0) return tokens.size();  // no body
  }
  return tokens.size();
}

struct Declarator {
  bool valid = false;
  std::size_t body_begin = 0;   ///< '{' index, 0 when declaration only
  std::size_t body_end = 0;
  std::size_t resume = 0;       ///< where the scanner continues
};

/// tokens[i] is IDENT and tokens[after i] is '(': decide whether this is a
/// function declarator (vs a call / object construction), and if so where
/// its body is. See index.h for the accepted shapes.
Declarator ClassifyDeclarator(const std::vector<Token>& tokens,
                              std::size_t i, std::size_t open_paren) {
  Declarator d;

  // Walk back over a qualified-name chain A::B::name to its first token.
  std::size_t chain_start = i;
  while (true) {
    std::size_t p = PrevCode(tokens, chain_start);
    if (p == tokens.size() || !IsPunct(tokens[p], "::")) break;
    std::size_t q = PrevCode(tokens, p);
    if (q == tokens.size() || tokens[q].kind != TokKind::kIdentifier) break;
    chain_start = q;
  }
  std::size_t before = PrevCode(tokens, chain_start);
  if (before != tokens.size()) {
    const Token& b = tokens[before];
    bool type_ish = b.kind == TokKind::kIdentifier || IsPunct(b, ">") ||
                    IsPunct(b, "*") || IsPunct(b, "&") || IsPunct(b, "&&") ||
                    IsPunct(b, "]") || IsPunct(b, "~");
    bool boundary = IsPunct(b, ";") || IsPunct(b, "{") || IsPunct(b, "}") ||
                    IsPunct(b, ":");
    if (!type_ish && !boundary) return d;
    if (b.kind == TokKind::kIdentifier &&
        StatementKeywords().count(b.text) != 0) {
      return d;
    }
  }

  std::size_t close = MatchingClose(tokens, open_paren);
  if (close >= tokens.size()) return d;

  // Swallow trailing qualifiers until the declaration resolves.
  std::size_t j = NextCode(tokens, close + 1);
  while (j < tokens.size()) {
    const Token& t = tokens[j];
    if (t.kind == TokKind::kIdentifier &&
        (t.text == "const" || t.text == "noexcept" || t.text == "override" ||
         t.text == "final" || t.text == "mutable")) {
      j = NextCode(tokens, j + 1);
      if (j < tokens.size() && IsPunct(tokens[j], "(")) {  // noexcept(...)
        std::size_t e = MatchingClose(tokens, j);
        if (e >= tokens.size()) return d;
        j = NextCode(tokens, e + 1);
      }
      continue;
    }
    if (IsPunct(t, ";")) {
      d.valid = true;
      d.resume = j + 1;
      return d;
    }
    if (IsPunct(t, "{")) {
      d.body_begin = j;
      d.body_end = MatchingClose(tokens, j);
      d.valid = d.body_end < tokens.size();
      d.resume = d.valid ? d.body_end + 1 : j + 1;
      return d;
    }
    if (IsPunct(t, ":")) {  // constructor initializer list
      std::size_t brace = BodyBraceAfterInitList(tokens, j + 1);
      if (brace >= tokens.size()) return d;
      d.body_begin = brace;
      d.body_end = MatchingClose(tokens, brace);
      d.valid = d.body_end < tokens.size();
      d.resume = d.valid ? d.body_end + 1 : brace + 1;
      return d;
    }
    if (IsPunct(t, "=")) {  // = default / = delete / = 0
      std::size_t v = NextCode(tokens, j + 1);
      if (v < tokens.size() &&
          (tokens[v].text == "default" || tokens[v].text == "delete" ||
           tokens[v].text == "0")) {
        std::size_t semi = NextCode(tokens, v + 1);
        if (semi < tokens.size() && IsPunct(tokens[semi], ";")) {
          d.valid = true;
          d.resume = semi + 1;
          return d;
        }
      }
      return d;
    }
    if (IsPunct(t, "->")) {  // trailing return type; scan to ';' or '{'
      std::size_t k = NextCode(tokens, j + 1);
      while (k < tokens.size() && !IsPunct(tokens[k], ";") &&
             !IsPunct(tokens[k], "{")) {
        k = NextCode(tokens, k + 1);
      }
      if (k >= tokens.size()) return d;
      if (IsPunct(tokens[k], ";")) {
        d.valid = true;
        d.resume = k + 1;
      } else {
        d.body_begin = k;
        d.body_end = MatchingClose(tokens, k);
        d.valid = d.body_end < tokens.size();
        d.resume = d.valid ? d.body_end + 1 : k + 1;
      }
      return d;
    }
    return d;
  }
  return d;
}

}  // namespace

TuIndex BuildIndex(const std::string& content) {
  TuIndex index;
  index.tokens = Tokenize(content);
  const std::vector<Token>& tokens = index.tokens;

  // Include edges.
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!IsPunct(tokens[i], "#")) continue;
    std::size_t kw = NextCode(tokens, i + 1);
    if (kw >= tokens.size() || tokens[kw].text != "include") continue;
    std::size_t target = NextCode(tokens, kw + 1);
    if (target >= tokens.size()) continue;
    const Token& t = tokens[target];
    if (t.kind == TokKind::kString && t.text.size() >= 2) {
      index.includes.push_back(
          {t.text.substr(1, t.text.size() - 2), t.line, false});
    } else if (t.kind == TokKind::kHeaderName && t.text.size() >= 2) {
      index.includes.push_back(
          {t.text.substr(1, t.text.size() - 2), t.line, true});
    }
  }

  // Function declarators — scanned outside bodies only (a call statement
  // inside a body would otherwise read as a declaration).
  std::size_t i = NextCode(tokens, 0);
  while (i < tokens.size()) {
    const Token& t = tokens[i];
    if (t.kind == TokKind::kIdentifier &&
        StatementKeywords().count(t.text) == 0) {
      std::size_t nxt = NextCode(tokens, i + 1);
      if (nxt < tokens.size() && IsPunct(tokens[nxt], "(")) {
        Declarator d = ClassifyDeclarator(tokens, i, nxt);
        if (d.valid) {
          FunctionInfo fn;
          fn.param_begin = nxt;
          fn.param_end = MatchingClose(tokens, nxt);
          fn.body_begin = d.body_begin;
          fn.body_end = d.body_end;
          index.functions.push_back(fn);
          i = d.resume;
          continue;
        }
      }
    }
    ++i;
  }
  return index;
}

}  // namespace insider::lint
