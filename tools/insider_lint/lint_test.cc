// Tests for the insider_check v2 rules: every rule must fire on its
// planted fixture (an auditor that never fails is untestable), must stay
// quiet on idiomatic clean code, and the real tree must lint clean. Also
// covers the rule registry and the absence of a suppression syntax.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace insider::lint {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::size_t CountRule(const std::vector<Finding>& findings,
                      const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

fs::path Testdata() { return fs::path(INSIDER_LINT_TESTDATA); }

// ---------------------------------------------------------------------------
// The rule registry.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, RegistryListsEveryRuleOnce) {
  const auto& rules = AllRules();
  EXPECT_EQ(rules.size(), 11u);
  std::set<std::string> ids;
  for (const RuleInfo& r : rules) {
    EXPECT_FALSE(r.summary.empty()) << r.id;
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule id " << r.id;
    EXPECT_TRUE(IsKnownRule(r.id));
  }
  EXPECT_TRUE(ids.count("layer-dag"));
  EXPECT_TRUE(ids.count("lane-sync"));
  EXPECT_TRUE(ids.count("simtime-cast"));
  // Status hygiene is the compiler's ([[nodiscard]] + -Werror=unused-result),
  // journal/audit pairing is one RAII type (PageFtl::MutationScope), and
  // there is no suppression syntax to go stale.
  EXPECT_FALSE(IsKnownRule("discarded-status"));
  EXPECT_FALSE(IsKnownRule("unused-suppression"));
  EXPECT_FALSE(IsKnownRule("no-such-rule"));
}

TEST(InsiderLintTest, LayerTableIsADagRootedAtCommon) {
  const auto& deps = LayerAllowedDeps();
  EXPECT_TRUE(deps.at("common").empty());
  EXPECT_TRUE(deps.at("host").count("ftl"));
  EXPECT_FALSE(deps.at("ftl").count("host"));
  EXPECT_FALSE(deps.at("nand").count("ftl"));
  // Every named dependency must itself be a known module.
  for (const auto& [module, allowed] : deps) {
    for (const std::string& dep : allowed) {
      EXPECT_TRUE(deps.count(dep)) << module << " -> " << dep;
      EXPECT_NE(dep, module) << "self-edges are implicit";
    }
  }
}

// DESIGN.md §14.2 is the authoritative layer table; LayerAllowedDeps() is
// its machine-readable copy. Parse the markdown rows (the backticked module
// name in the first cell, every backticked name in the second cell an
// allowed dependency, "—" for none) and require the two to be equal.
TEST(InsiderLintTest, LayerTableMatchesDesignDoc) {
  std::istringstream design(
      ReadFile(fs::path(INSIDER_LINT_SOURCE_ROOT) / "DESIGN.md"));
  std::map<std::string, std::set<std::string>> documented;
  bool in_section = false;
  std::string line;
  while (std::getline(design, line)) {
    if (line.rfind("### ", 0) == 0) {
      in_section = line.rfind("### 14.2 ", 0) == 0;
      continue;
    }
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    const std::size_t split = line.find('|', 1);
    ASSERT_NE(split, std::string::npos) << line;
    auto names = [](const std::string& cell) {
      std::vector<std::string> out;
      for (std::size_t open = cell.find('`'); open != std::string::npos;) {
        const std::size_t close = cell.find('`', open + 1);
        if (close == std::string::npos) break;
        out.push_back(cell.substr(open + 1, close - open - 1));
        open = cell.find('`', close + 1);
      }
      return out;
    };
    const std::vector<std::string> module = names(line.substr(1, split - 1));
    ASSERT_EQ(module.size(), 1u) << line;
    std::set<std::string> deps;
    for (const std::string& dep : names(line.substr(split + 1))) {
      deps.insert(dep);
    }
    EXPECT_TRUE(documented.emplace(module[0], deps).second)
        << "module listed twice: " << module[0];
  }
  ASSERT_FALSE(documented.empty()) << "no §14.2 layer table in DESIGN.md";
  EXPECT_EQ(documented, LayerAllowedDeps());
}

// ---------------------------------------------------------------------------
// v1 rules, ported onto the token engine.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, FlagsWallClockFixture) {
  auto findings = LintSource("testdata/bad_wallclock.cc",
                             ReadFile(Testdata() / "bad_wallclock.cc"));
  EXPECT_TRUE(HasRule(findings, "wall-clock")) << findings.size();
  // system_clock twice, time(), gettimeofday().
  EXPECT_GE(findings.size(), 4u);
}

TEST(InsiderLintTest, FlagsUnseededRngFixture) {
  auto findings = LintSource("testdata/bad_rng.cc",
                             ReadFile(Testdata() / "bad_rng.cc"));
  EXPECT_TRUE(HasRule(findings, "unseeded-rng"));
  EXPECT_GE(findings.size(), 3u);  // random_device, srand, rand
}

TEST(InsiderLintTest, FlagsAssertOnStatusFixture) {
  auto findings = LintSource("testdata/bad_assert.cc",
                             ReadFile(Testdata() / "bad_assert.cc"));
  EXPECT_TRUE(HasRule(findings, "assert-on-status"));
}

TEST(InsiderLintTest, FlagsNakedTimestampAndMissingPragmaFixture) {
  auto findings = LintSource("testdata/bad_timestamp.h",
                             ReadFile(Testdata() / "bad_timestamp.h"));
  EXPECT_TRUE(HasRule(findings, "naked-timestamp"));
  EXPECT_TRUE(HasRule(findings, "pragma-once"));
  // written_at, expiry_deadline, now, release_horizon.
  EXPECT_EQ(CountRule(findings, "naked-timestamp"), 4u);
}

TEST(InsiderLintTest, FlagsIncludeCycleFixture) {
  std::vector<std::pair<std::string, std::vector<IncludeEdge>>> headers = {
      {"cycle/cycle_a.h",
       BuildIndex(ReadFile(Testdata() / "src/cycle/cycle_a.h")).includes},
      {"cycle/cycle_b.h",
       BuildIndex(ReadFile(Testdata() / "src/cycle/cycle_b.h")).includes},
  };
  auto findings = CheckIncludeCycles(headers);
  ASSERT_TRUE(HasRule(findings, "include-cycle"));
  EXPECT_NE(findings.front().message.find("->"), std::string::npos);
}

TEST(InsiderLintTest, FlagsRawOutputFixture) {
  auto findings = LintSource("testdata/src/bad_output.cc",
                             ReadFile(Testdata() / "src" / "bad_output.cc"));
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "raw-output") << Format(f);
  }
  // cout, cerr, clog, printf, fprintf, puts, fputs, fputc, putchar — but
  // NOT the snprintf.
  EXPECT_EQ(findings.size(), 9u);
}

TEST(InsiderLintTest, RawOutputRuleScopesToSimulatorCode) {
  const std::string printing = "std::printf(\"hello\\n\");\n";
  EXPECT_TRUE(HasRule(LintSource("src/ftl/page_ftl.cc", printing),
                      "raw-output"));
  // The logging substrate and non-src code (CLIs, benches, tests) may print.
  EXPECT_TRUE(LintSource("src/common/log.cc", printing).empty());
  EXPECT_TRUE(LintSource("tools/trace_dump/main.cc", printing).empty());
  EXPECT_TRUE(LintSource("bench/mqueue_throughput.cc", printing).empty());
  // String formatting stays allowed everywhere.
  EXPECT_TRUE(
      LintSource("src/ftl/page_ftl.cc", "std::snprintf(buf, n, \"%d\", v);\n")
          .empty());
}

TEST(InsiderLintTest, FlagsRawThreadFixture) {
  auto findings = LintSource("testdata/bad_thread.cc",
                             ReadFile(Testdata() / "bad_thread.cc"));
  EXPECT_TRUE(HasRule(findings, "raw-thread")) << findings.size();
  EXPECT_GE(findings.size(), 4u);
}

TEST(InsiderLintTest, RawThreadRuleExemptsTheShardRuntime) {
  const std::string threaded =
      "std::mutex mu;\nstd::thread t;\nstd::atomic<int> n{0};\n";
  EXPECT_TRUE(HasRule(LintSource("src/ftl/page_ftl.cc", threaded),
                      "raw-thread"));
  EXPECT_TRUE(HasRule(LintSource("tests/some_test.cc", threaded),
                      "raw-thread"));
  // The sharded runtime, its arena, and the log-level atomic are the
  // sanctioned homes of thread primitives.
  EXPECT_FALSE(HasRule(LintSource("src/io/shard_runtime.cc", threaded),
                       "raw-thread"));
  EXPECT_FALSE(HasRule(LintSource("src/common/arena.h", threaded),
                       "raw-thread"));
  EXPECT_FALSE(
      HasRule(LintSource("src/common/log.cc",
                         "std::atomic<LogLevel> g_level;\n"),
              "raw-thread"));
  // Prose about std::thread does not trip the rule.
  EXPECT_FALSE(HasRule(
      LintSource("src/nand/deferred.h", "// no std::thread here\n"),
      "raw-thread"));
}

// ---------------------------------------------------------------------------
// layer-dag.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, FlagsLayerDagFixture) {
  auto findings =
      LintSource("testdata/src/ftl/bad_layer.cc",
                 ReadFile(Testdata() / "src" / "ftl" / "bad_layer.cc"));
  // host/ssd.h and workload/apps.h are above ftl; nand/flash_array.h and
  // the module's own ftl/ftl_types.h are fine.
  EXPECT_EQ(CountRule(findings, "layer-dag"), 2u)
      << (findings.empty() ? "none" : Format(findings.front()));
}

TEST(InsiderLintTest, LayerDagAllowsSanctionedAndSelfIncludes) {
  EXPECT_TRUE(LintSource("src/ftl/page_ftl.cc",
                         "#include \"ftl/page_ftl.h\"\n"
                         "#include \"nand/flash_array.h\"\n"
                         "#include \"common/time.h\"\n")
                  .empty());
  // Angled system includes and non-module quoted includes never match.
  EXPECT_TRUE(LintSource("src/ftl/page_ftl.cc",
                         "#include <vector>\n#include \"page_ftl.h\"\n")
                  .empty());
  // Files outside src/ are not in any module.
  EXPECT_TRUE(LintSource("tests/ftl_test.cc",
                         "#include \"host/ssd.h\"\n")
                  .empty());
}

TEST(InsiderLintTest, LayerDagFlagsUpwardInclude) {
  auto findings = LintSource("src/nand/flash_array.cc",
                             "#include \"ftl/page_ftl.h\"\n");
  ASSERT_EQ(CountRule(findings, "layer-dag"), 1u);
  EXPECT_NE(findings.front().message.find("'nand'"), std::string::npos)
      << Format(findings.front());
}

// ---------------------------------------------------------------------------
// lane-sync.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, FlagsLaneSyncFixture) {
  auto findings =
      LintSource("testdata/src/ftl/bad_lane_sync.cc",
                 ReadFile(Testdata() / "src" / "ftl" / "bad_lane_sync.cc"));
  // MissingDrain fires; DrainedFirst drained first and must not.
  ASSERT_EQ(CountRule(findings, "lane-sync"), 1u);
  EXPECT_EQ(findings.front().line, 15u) << Format(findings.front());
}

TEST(InsiderLintTest, LaneSyncScopesToSimulatorCodeOutsideTheRuntime) {
  const std::string raw_read =
      "void F(Nand& nand) { const Page* p = nand.BlockAt(1).Read(0); }\n";
  EXPECT_TRUE(HasRule(LintSource("src/ftl/page_ftl.cc", raw_read),
                      "lane-sync"));
  // The shard runtime and the NAND accessor layer own their lane
  // discipline; tests and tools read snapshots however they like.
  EXPECT_FALSE(HasRule(LintSource("src/io/shard_runtime.cc", raw_read),
                       "lane-sync"));
  EXPECT_FALSE(HasRule(LintSource("src/nand/flash_array.cc", raw_read),
                       "lane-sync"));
  EXPECT_FALSE(HasRule(LintSource("tests/ftl_test.cc", raw_read),
                       "lane-sync"));
  // SyncLane (single-lane drain) and PeekPage both satisfy the contract.
  EXPECT_FALSE(HasRule(
      LintSource("src/ftl/page_ftl.cc",
                 "void F(Nand& nand) {\n"
                 "  nand.SyncLane(3);\n"
                 "  const Page* p = nand.BlockAt(1).Read(0);\n"
                 "}\n"),
      "lane-sync"));
  EXPECT_FALSE(HasRule(
      LintSource("src/ftl/page_ftl.cc",
                 "void F(Nand& nand) { Page p = nand.PeekPage(1, 0); }\n"),
      "lane-sync"));
}

// ---------------------------------------------------------------------------
// simtime-cast.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, FlagsSimtimeCastFixture) {
  auto findings =
      LintSource("testdata/bad_simtime_cast.cc",
                 ReadFile(Testdata() / "bad_simtime_cast.cc"));
  // raw -> SimTime in FromCount, SimTime -> long long in ToRaw. The
  // double render in RenderSeconds must not fire.
  EXPECT_EQ(CountRule(findings, "simtime-cast"), 2u);
}

TEST(InsiderLintTest, SimtimeCastExemptsTheSanctionedHomes) {
  const std::string cast =
      "SimTime F(unsigned n) { return static_cast<SimTime>(n); }\n";
  EXPECT_TRUE(HasRule(LintSource("src/ftl/page_ftl.cc", cast),
                      "simtime-cast"));
  EXPECT_TRUE(HasRule(LintSource("tests/ftl_test.cc", cast),
                      "simtime-cast"));
  // The time substrate defines the helpers; obs serializes for dashboards.
  EXPECT_FALSE(HasRule(LintSource("src/common/time.h", cast),
                       "simtime-cast"));
  EXPECT_FALSE(HasRule(LintSource("src/obs/trace_log.cc", cast),
                       "simtime-cast"));
  // Casting an untracked integer to another integer type is fine.
  EXPECT_FALSE(HasRule(
      LintSource("src/ftl/page_ftl.cc",
                 "int F(unsigned n) { return static_cast<int>(n); }\n"),
      "simtime-cast"));
}

// ---------------------------------------------------------------------------
// No suppressions: offenders are fixed, never silenced.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, AllowCommentsDoNotSilenceFindings) {
  auto same_line =
      LintSource("src/ftl/x.cc",
                 "std::uint64_t t = time(nullptr);  "
                 "// insider-lint: allow(wall-clock)\n");
  EXPECT_EQ(CountRule(same_line, "wall-clock"), 1u);
  auto line_before = LintSource(
      "src/ftl/x.cc",
      "// insider-lint: allow(wall-clock): boot stamp for the report\n"
      "std::uint64_t t = time(nullptr);\n");
  EXPECT_EQ(CountRule(line_before, "wall-clock"), 1u);
}

// ---------------------------------------------------------------------------
// Rule filtering.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, RuleFilterRunsOnlySelectedRules) {
  const std::string both =
      "std::uint64_t t = time(nullptr);\nint r = rand();\n";
  Options only_clock;
  only_clock.rules = {"wall-clock"};
  auto findings = LintSource("src/ftl/x.cc", both, only_clock);
  EXPECT_TRUE(HasRule(findings, "wall-clock"));
  EXPECT_FALSE(HasRule(findings, "unseeded-rng"));
}

// ---------------------------------------------------------------------------
// Engine-level behaviors shared by all rules.
// ---------------------------------------------------------------------------

TEST(InsiderLintTest, LintTreeOnTestdataFiresEveryFileRule) {
  auto findings = LintTree({Testdata()});
  for (const RuleInfo& r : AllRules()) {
    EXPECT_TRUE(HasRule(findings, r.id)) << "no fixture fires " << r.id;
  }
}

TEST(InsiderLintTest, CommentsAndStringsDoNotTrip) {
  const std::string clean = R"cpp(
// Comparing against time() and rand() would break determinism.
/* std::chrono::system_clock is banned; gettimeofday too. */
#pragma once
const char* kDoc = "call time(nullptr) and rand() at your peril";
SimTime runtime(SimTime now);
)cpp";
  auto findings = LintSource("src/example.h", clean);
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, DigitSeparatorsDoNotDesyncTheTokenizer) {
  // 0xBE5C'0000 and 1'000'000 contain apostrophes that are digit
  // separators, not char-literal starts. A lexer that opens a char
  // literal there swallows real code until the next apostrophe — here the
  // one in "device's" — and then exposes comment text like "time (" to
  // the wall-clock rule.
  const std::string code =
      "Rng rng(0xBE5C'0000 + depth);\n"
      "std::uint64_t stamp = q * 1'000'000ull;\n"
      "// the device's elapsed time (virtual) stays on the SimTime clock\n";
  auto findings = LintSource("src/example.cc", code);
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, SimTimeIdentifiersAreNotWallClockCalls) {
  auto findings = LintSource(
      "src/example.cc",
      "SimTime t = SimTime(5); RetentionTime(t); my_time(t);\n");
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, TimeAndRngSubstrateIsExempt) {
  const std::string substrate =
      "#pragma once\nstd::uint64_t wall_time = time(nullptr);\n"
      "int r = rand();\n";
  EXPECT_FALSE(LintSource("src/ftl/clock.h", substrate).empty());
  EXPECT_TRUE(LintSource("src/common/time.h", substrate).empty());
  EXPECT_TRUE(LintSource("src/common/rng.h", substrate).empty());
}

TEST(InsiderLintTest, PlainAssertIsAllowed) {
  auto findings =
      LintSource("src/example.cc", "assert(index < pages.size());\n");
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, SimTimeTimestampsAreAllowed) {
  auto findings = LintSource(
      "src/example.h",
      "#pragma once\nSimTime written_at = 0;\nstd::uint64_t seq = 0;\n");
  EXPECT_TRUE(findings.empty()) << Format(findings.front());
}

TEST(InsiderLintTest, FormatCarriesFileLineColRule) {
  Finding f{"src/a.cc", 12, 7, "wall-clock", "boom"};
  EXPECT_EQ(Format(f), "src/a.cc:12:7: [wall-clock] boom");
  Finding no_col{"src/a.cc", 12, 0, "wall-clock", "boom"};
  EXPECT_EQ(Format(no_col), "src/a.cc:12: [wall-clock] boom");
  Finding whole_file{"src/b.h", 0, 0, "pragma-once", "missing"};
  EXPECT_EQ(Format(whole_file), "src/b.h: [pragma-once] missing");
}

// The gate that matters: the real tree lints clean — including this tool
// linting itself. This is the same scan CI's insider_lint job runs via the
// CLI binary.
TEST(InsiderLintTest, RepositoryTreeIsClean) {
  fs::path root(INSIDER_LINT_SOURCE_ROOT);
  auto findings =
      LintTree({root / "src", root / "tests", root / "bench",
                root / "examples", root / "tools"});
  for (const Finding& f : findings) ADD_FAILURE() << Format(f);
}

}  // namespace
}  // namespace insider::lint
