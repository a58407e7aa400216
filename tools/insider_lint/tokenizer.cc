#include "tokenizer.h"

#include <array>
#include <cctype>

namespace insider::lint {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentCont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Encoding prefixes that may glue onto a string or char literal.
bool IsLiteralPrefix(const std::string& ident) {
  return ident == "u8" || ident == "u" || ident == "U" || ident == "L" ||
         ident == "R" || ident == "u8R" || ident == "uR" || ident == "UR" ||
         ident == "LR";
}
bool PrefixIsRaw(const std::string& ident) {
  return !ident.empty() && ident.back() == 'R';
}

/// Multi-character punctuation, longest first for maximal munch.
const std::array<const char*, 36>& MultiPuncts() {
  static const std::array<const char*, 36> kPuncts = {
      "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>",
      "<=",  ">=",  "==",  "!=",  "&&", "||", "+=", "-=", "*=", "/=",
      "%=",  "&=",  "|=",  "^=",  ".*", "##", "<",  ">",  "=",  "!",
      "&",   "|",   "+",   "-",   "*",  "/",
  };
  return kPuncts;
}

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  std::vector<Token> Run() {
    std::vector<Token> tokens;
    while (pos_ < src_.size()) {
      SkipWhitespace();
      if (pos_ >= src_.size()) break;
      tokens.push_back(Next(tokens));
    }
    return tokens;
  }

 private:
  char At(std::size_t i) const { return i < src_.size() ? src_[i] : '\0'; }
  char Cur() const { return At(pos_); }
  char Peek() const { return At(pos_ + 1); }

  void Advance() {
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void SkipWhitespace() {
    while (pos_ < src_.size() &&
           std::isspace(static_cast<unsigned char>(src_[pos_]))) {
      Advance();
    }
  }

  Token Start(TokKind kind) const {
    Token t;
    t.kind = kind;
    t.offset = pos_;
    t.line = line_;
    t.col = col_;
    return t;
  }

  void Finish(Token& t) { t.text = src_.substr(t.offset, pos_ - t.offset); }

  Token Next(const std::vector<Token>& so_far) {
    char c = Cur();
    if (c == '/' && Peek() == '/') return LineComment();
    if (c == '/' && Peek() == '*') return BlockComment();
    if (IsIdentStart(c)) return IdentifierOrPrefixedLiteral();
    if (IsDigit(c) || (c == '.' && IsDigit(Peek()))) return Number();
    if (c == '"') return StringLit(/*raw=*/false, Start(TokKind::kString));
    if (c == '\'') return CharLit(Start(TokKind::kCharLit));
    if (c == '<' && AfterInclude(so_far)) return HeaderName();
    return Punct();
  }

  Token LineComment() {
    Token t = Start(TokKind::kLineComment);
    while (pos_ < src_.size() && Cur() != '\n') Advance();
    Finish(t);
    return t;
  }

  Token BlockComment() {
    Token t = Start(TokKind::kBlockComment);
    Advance();  // '/'
    Advance();  // '*'
    while (pos_ < src_.size()) {
      if (Cur() == '*' && Peek() == '/') {
        Advance();
        Advance();
        break;
      }
      Advance();
    }
    Finish(t);
    return t;
  }

  Token IdentifierOrPrefixedLiteral() {
    Token t = Start(TokKind::kIdentifier);
    while (pos_ < src_.size() && IsIdentCont(Cur())) Advance();
    Finish(t);
    // u8"...", L'...', R"x(...)x": the prefix and the literal are one token.
    if (IsLiteralPrefix(t.text)) {
      if (Cur() == '"') {
        t.kind = TokKind::kString;
        return StringLit(PrefixIsRaw(t.text), t);
      }
      if (Cur() == '\'' && !PrefixIsRaw(t.text)) {
        t.kind = TokKind::kCharLit;
        return CharLit(t);
      }
    }
    return t;
  }

  /// pp-number: handles 1'000'000ull, 0xBE5C'0000, 1.5e-3, 0x1p+2 — the
  /// digit separator is consumed here, so it can never open a char literal.
  Token Number() {
    Token t = Start(TokKind::kNumber);
    Advance();
    while (pos_ < src_.size()) {
      char c = Cur();
      if (IsIdentCont(c) || c == '.') {
        // Exponent signs: e+/e-/p+/p- continue the number.
        Advance();
        char prev = At(pos_ - 1);
        if ((prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') &&
            (Cur() == '+' || Cur() == '-')) {
          Advance();
        }
      } else if (c == '\'' && IsIdentCont(Peek())) {
        Advance();  // digit separator
      } else {
        break;
      }
    }
    Finish(t);
    return t;
  }

  /// `start` already covers any encoding prefix; Cur() is the opening '"'.
  Token StringLit(bool raw, Token start) {
    if (raw) {
      Advance();  // '"'
      std::string delim;
      while (pos_ < src_.size() && Cur() != '(') {
        delim.push_back(Cur());
        Advance();
      }
      std::string terminator = ")" + delim + "\"";
      while (pos_ < src_.size()) {
        if (src_.compare(pos_, terminator.size(), terminator) == 0) {
          for (std::size_t i = 0; i < terminator.size(); ++i) Advance();
          break;
        }
        Advance();
      }
      Finish(start);
      return start;
    }
    Advance();  // '"'
    while (pos_ < src_.size()) {
      if (Cur() == '\\' && pos_ + 1 < src_.size()) {
        Advance();
        Advance();
        continue;
      }
      if (Cur() == '"' || Cur() == '\n') {  // newline: unterminated, recover
        if (Cur() == '"') Advance();
        break;
      }
      Advance();
    }
    Finish(start);
    return start;
  }

  Token CharLit(Token start) {
    Advance();  // '\''
    while (pos_ < src_.size()) {
      if (Cur() == '\\' && pos_ + 1 < src_.size()) {
        Advance();
        Advance();
        continue;
      }
      if (Cur() == '\'' || Cur() == '\n') {
        if (Cur() == '\'') Advance();
        break;
      }
      Advance();
    }
    Finish(start);
    return start;
  }

  /// The previous two non-comment tokens are `#` `include` (or
  /// `#include`-adjacent forms); the `<...>` that follows is one
  /// header-name token, not a less-than expression.
  bool AfterInclude(const std::vector<Token>& so_far) const {
    int seen = 0;
    std::string prev[2];
    for (auto it = so_far.rbegin(); it != so_far.rend() && seen < 2; ++it) {
      if (IsComment(*it)) continue;
      prev[seen++] = it->text;
    }
    return seen == 2 && prev[0] == "include" && prev[1] == "#";
  }

  Token HeaderName() {
    Token t = Start(TokKind::kHeaderName);
    Advance();  // '<'
    while (pos_ < src_.size() && Cur() != '>' && Cur() != '\n') Advance();
    if (Cur() == '>') Advance();
    Finish(t);
    return t;
  }

  Token Punct() {
    Token t = Start(TokKind::kPunct);
    for (const char* p : MultiPuncts()) {
      std::size_t n = std::char_traits<char>::length(p);
      if (src_.compare(pos_, n, p) == 0) {
        for (std::size_t i = 0; i < n; ++i) Advance();
        Finish(t);
        return t;
      }
    }
    Advance();
    Finish(t);
    return t;
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t col_ = 1;
};

}  // namespace

std::vector<Token> Tokenize(const std::string& src) {
  return Lexer(src).Run();
}

}  // namespace insider::lint
