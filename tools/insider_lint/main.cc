// insider_check v2 CLI.
//
//   insider_lint [flags] <root-dir>...
//
// Flags:
//   --list-rules        print every registered rule id + summary, exit 0.
//   --rule=<id>[,<id>]  run only the named rules (repeatable; ids from
//                       --list-rules). Unknown ids are a usage error.
//
// Exit-code contract (relied on by the ctest gates and CI):
//   0  lint ran and found nothing;
//   1  lint ran and produced at least one finding (they are printed to
//      stderr, one "path:line:col: [rule] message" per line);
//   2  usage error (bad flag, unknown rule id, no roots) — nothing was
//      linted.
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "lint.h"

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--list-rules] [--rule=<id>[,<id>...]] <root-dir>...\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::filesystem::path> roots;
  std::set<std::string> rules;
  bool list_rules = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg.rfind("--rule=", 0) == 0) {
      std::string list = arg.substr(7);
      std::size_t begin = 0;
      while (begin <= list.size()) {
        std::size_t comma = list.find(',', begin);
        std::string id = list.substr(
            begin, comma == std::string::npos ? comma : comma - begin);
        if (!id.empty()) {
          if (!insider::lint::IsKnownRule(id)) {
            std::fprintf(stderr,
                         "insider_lint: unknown rule '%s' (see --list-rules)\n",
                         id.c_str());
            return 2;
          }
          rules.insert(id);
        }
        if (comma == std::string::npos) break;
        begin = comma + 1;
      }
      if (rules.empty()) {
        std::fprintf(stderr, "insider_lint: --rule= names no rules\n");
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "insider_lint: unknown flag '%s'\n", arg.c_str());
      PrintUsage(argv[0]);
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }

  if (list_rules) {
    for (const insider::lint::RuleInfo& r : insider::lint::AllRules()) {
      std::printf("%-20s %s\n", r.id.c_str(), r.summary.c_str());
    }
    return 0;
  }

  if (roots.empty()) {
    PrintUsage(argv[0]);
    return 2;
  }

  insider::lint::Options options;
  options.rules = rules;
  std::vector<insider::lint::Finding> findings =
      insider::lint::LintTree(roots, options);

  for (const insider::lint::Finding& f : findings) {
    std::fprintf(stderr, "%s\n", insider::lint::Format(f).c_str());
  }

  if (!findings.empty()) {
    std::fprintf(stderr, "insider_lint: %zu violation(s)\n", findings.size());
    return 1;
  }
  std::printf("insider_lint: clean\n");
  return 0;
}
