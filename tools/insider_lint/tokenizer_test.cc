// Seeded differential property test for the tokenizer: generate many
// random-but-valid C++ sources from a pool of tricky fragments (raw
// strings with custom delimiters, digit separators, block comments with
// nested decorations, escaped quotes), then assert the pinned invariants
// from tokenizer.h — every token is position-identical to the input
// (src.substr(offset) round-trips its spelling), gaps are whitespace-only,
// and line/col agree with counting newlines. The v1 character-machine
// scrubber failed exactly these properties twice (digit separators,
// raw-string delimiters); the fuzz pool is built from those regressions.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "tokenizer.h"

namespace insider::lint {
namespace {

// SplitMix64 — the project's seeded-randomness idiom, self-contained so
// the tool does not link the simulator.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t Below(std::size_t n) {
    return static_cast<std::size_t>(Next() % n);
  }

 private:
  std::uint64_t state_;
};

// Fragments chosen to stress every lexer mode. Each is independently
// lexable, so any concatenation lexes without cascading failures.
const char* const kFragments[] = {
    // Raw strings with delimiters — including ones containing )" and the
    // would-be terminator of a DIFFERENT delimiter.
    "const char* a = R\"(plain raw)\";",
    "const char* b = R\"x(contains )\" inside)x\";",
    "const char* c = R\"delim(a )x\" b )other\" c)delim\";",
    "const char* d = R\"(multi\nline\nraw)\";",
    "const char* e = u8R\"seq(prefixed )q\" raw)seq\";",
    // Digit separators in every base, next to char literals.
    "unsigned f = 0xBE5C'0000 + 1'000'000;",
    "auto g = 0b1010'1010 + 3.141'592e+1'0;",
    "char h = 'x'; unsigned i = 1'2'3; char j = '\\'';",
    // Escaped quotes and backslashes in strings and char literals.
    "const char* k = \"say \\\"hi\\\" and \\\\ done\";",
    "const char* l = \"tab\\tnl\\n quote\\\" end\";",
    "char m = '\\\\'; char n = '\\n'; char o = '\\x41';",
    // Comments with decorations that look like nested openers/closers.
    "/* outer /* looks nested */ int p = 1;",
    "// line comment with \"quotes\" and 'ticks' and /* opener\nint q = 2;",
    "/* multi\n * line\n * block\n */ int r = 3;",
    "/* unbalanced \"string and 'tick */ int s = 4;",
    // Header-name mode and operators that maximal-munch must split right.
    "#include <ftl/page_ftl.h>\n#include \"common/time.h\"\n",
    "int t = 1; bool u = tt < b && cc > dd; auto v = w->*x;",
    "auto y = z ? aa : bb; int cc2 = ee; ee <<= 2; ee %= ff ^ ~gg;",
    // Encoding prefixes and adjacent literals.
    "auto ww = L\"wide\" \"narrow\" u\"utf16\";",
    "auto xx = u8'c'; auto yy = U'\\u0041';",
};

const char* const kSeparators[] = {" ", "\n", "\n\n", "\t", "  \n  "};

std::string GenerateSource(Rand& rng) {
  std::string src;
  const std::size_t pieces = 3 + rng.Below(20);
  for (std::size_t i = 0; i < pieces; ++i) {
    src += kFragments[rng.Below(std::size(kFragments))];
    src += kSeparators[rng.Below(std::size(kSeparators))];
  }
  return src;
}

bool IsWhitespaceOnly(const std::string& s, std::size_t begin,
                      std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const char c = s[i];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r' && c != '\v' &&
        c != '\f') {
      return false;
    }
  }
  return true;
}

void CheckInvariants(const std::string& src) {
  const std::vector<Token> tokens = Tokenize(src);

  // Differential position check: every token's recorded spelling is
  // byte-identical to the source at its offset, tokens are ordered and
  // non-overlapping, and the gaps hold only whitespace.
  std::size_t cursor = 0;
  std::size_t line = 1;
  std::size_t col = 1;
  std::size_t scanned_to = 0;
  auto advance_to = [&](std::size_t target) {
    for (; scanned_to < target; ++scanned_to) {
      if (src[scanned_to] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
  };
  for (const Token& tok : tokens) {
    ASSERT_GE(tok.offset, cursor) << "token overlaps its predecessor";
    ASSERT_LE(tok.offset + tok.text.size(), src.size());
    EXPECT_EQ(src.substr(tok.offset, tok.text.size()), tok.text)
        << "spelling not position-identical at offset " << tok.offset;
    EXPECT_TRUE(IsWhitespaceOnly(src, cursor, tok.offset))
        << "non-whitespace bytes dropped before offset " << tok.offset;
    EXPECT_FALSE(tok.text.empty());
    advance_to(tok.offset);
    EXPECT_EQ(tok.line, line) << "at offset " << tok.offset;
    EXPECT_EQ(tok.col, col) << "at offset " << tok.offset;
    cursor = tok.offset + tok.text.size();
  }
  EXPECT_TRUE(IsWhitespaceOnly(src, cursor, src.size()))
      << "non-whitespace bytes dropped after the last token";

  // Rendering the token stream back over a whitespace skeleton must
  // reproduce the input byte-for-byte.
  std::string rebuilt(src.size(), '\0');
  for (std::size_t i = 0; i < src.size(); ++i) {
    rebuilt[i] =
        std::isspace(static_cast<unsigned char>(src[i])) ? src[i] : ' ';
  }
  for (const Token& tok : tokens) {
    for (std::size_t i = 0; i < tok.text.size(); ++i) {
      rebuilt[tok.offset + i] = tok.text[i];
    }
  }
  EXPECT_EQ(rebuilt, src) << "token stream does not cover the source";
}

TEST(TokenizerPropertyTest, SeededDifferentialRoundTrip) {
  // Fixed seeds: failures replay exactly. 64 sources of up to ~23
  // fragments each cover every pool entry many times over.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rand rng(seed * 0x5DEECE66Dull);
    const std::string src = GenerateSource(rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckInvariants(src);
  }
}

TEST(TokenizerPropertyTest, EveryFragmentAloneHoldsTheInvariants) {
  for (const char* fragment : kFragments) {
    SCOPED_TRACE(fragment);
    CheckInvariants(fragment);
  }
}

TEST(TokenizerPropertyTest, PathologicalInputsDegradeGracefully) {
  // Unterminated constructs extend to end of input; stray bytes become
  // one-char punct tokens. The invariants hold regardless.
  const char* const kPathological[] = {
      "",
      "\n\n\n",
      "\"unterminated string",
      "'",
      "/* unterminated comment",
      "R\"x(unterminated raw",
      "R\"(half)\" R\"(",
      "@ $ ` weird bytes",
      "#include <unclosed",
      "0x'",
      "1'",
  };
  for (const char* src : kPathological) {
    SCOPED_TRACE(std::string("input: ") + src);
    CheckInvariants(src);
  }
}

TEST(TokenizerPropertyTest, ClassifiesTheRegressionCases) {
  // The two v1 scrub desyncs, pinned as kind checks.
  auto toks = Tokenize("Rng rng(0xBE5C'0000 + depth);");
  bool found_number = false;
  for (const Token& t : toks) {
    if (t.text == "0xBE5C'0000") {
      found_number = true;
      EXPECT_EQ(t.kind, TokKind::kNumber);
    }
    EXPECT_NE(t.kind, TokKind::kCharLit) << t.text;
  }
  EXPECT_TRUE(found_number);

  toks = Tokenize("auto s = R\"x(contains )\" inside)x\";");
  bool found_raw = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kString) {
      found_raw = true;
      EXPECT_EQ(t.text, "R\"x(contains )\" inside)x\"");
    }
  }
  EXPECT_TRUE(found_raw);

  toks = Tokenize("#include <ftl/page_ftl.h>\nint a = b < c;");
  bool found_header = false;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kHeaderName) {
      found_header = true;
      EXPECT_EQ(t.text, "<ftl/page_ftl.h>");
    }
  }
  EXPECT_TRUE(found_header);
}

}  // namespace
}  // namespace insider::lint
