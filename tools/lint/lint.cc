// gnn4tdl_lint: from-scratch multi-pass static analyzer for the gnn4tdl
// tree. No external dependencies — a comment/string-aware tokenizer
// (common.cc) feeds independent passes (pass.h):
//
//   style   project idiom invariants (status-discard, banned-call,
//           cout-in-src, raw-new-delete, raw-thread, raw-deque, raw-clock,
//           raw-simd, raw-sleep, raw-number-parse, raw-stderr,
//           missing-pragma-once, using-namespace-in-header) — see
//           style_pass.cc.
//   lock    lock-discipline analysis over the annotated mutex layer
//           (lock-raw-mutex, lock-unannotated-field, lock-unknown-mutex,
//           lock-double-acquire, lock-requires-public) — see lock_pass.cc
//           and docs/STATIC_ANALYSIS.md.
//
// Usage:
//   gnn4tdl_lint [--root DIR] [--pass p1,p2] [--expect rule1,rule2,...] [-v]
//
// Scans DIR/{src,tests,bench,tools,examples} (skipping any path containing
// "testdata", plus build*/.git). Exit 0 = clean, 1 = violations, 2 = usage or
// I/O error. --pass restricts the run to the named passes. With --expect,
// acts as a self-test: exit 0 iff the set of rules that fired equals the
// given set (used by the ctest fixture cases to prove every rule actually
// detects its seeded violation).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "pass.h"

namespace fs = std::filesystem;

namespace {

using gnn4tdl_lint::Pass;
using gnn4tdl_lint::SourceFile;
using gnn4tdl_lint::StartsWith;
using gnn4tdl_lint::Violation;

bool SkipPath(const fs::path& p) {
  for (const fs::path& part : p) {
    const std::string s = part.string();
    if (s == ".git" || s == "testdata" || StartsWith(s, "build")) return true;
  }
  return false;
}

bool ScannableSource(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc";
}

std::set<std::string> SplitCommaSet(const std::string& list) {
  std::set<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.insert(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string expect;
  std::string pass_filter;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--expect" && i + 1 < argc) {
      expect = argv[++i];
    } else if (arg == "--pass" && i + 1 < argc) {
      pass_filter = argv[++i];
    } else if (arg == "-v") {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: gnn4tdl_lint [--root DIR] [--pass p1,p2] "
                   "[--expect r1,r2,...] [-v]\n");
      return 2;
    }
  }

  const fs::path root_path(root);
  if (!fs::exists(root_path)) {
    std::fprintf(stderr, "gnn4tdl_lint: root '%s' does not exist\n",
                 root.c_str());
    return 2;
  }

  // Collect and pre-tokenize the files to scan, relative to root. Passes
  // share the stripped/tokenized form.
  std::vector<std::string> rel_paths;
  for (const char* dir : {"src", "tests", "bench", "tools", "examples"}) {
    const fs::path sub = root_path / dir;
    if (!fs::exists(sub)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(sub)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      if (SkipPath(fs::relative(p, root_path)) || !ScannableSource(p)) continue;
      rel_paths.push_back(fs::relative(p, root_path).generic_string());
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());

  std::vector<SourceFile> files;
  files.reserve(rel_paths.size());
  for (const std::string& rel : rel_paths) {
    std::ifstream in(root_path / rel, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "gnn4tdl_lint: cannot read %s\n", rel.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    SourceFile file;
    file.path = rel;
    file.raw = buf.str();
    file.stripped = gnn4tdl_lint::StripCode(file.raw);
    file.tokens = gnn4tdl_lint::Tokenize(file.stripped);
    file.unguarded_exempt_lines =
        gnn4tdl_lint::CollectUnguardedExemptLines(file.raw);
    file.stderr_exempt_lines =
        gnn4tdl_lint::CollectMarkerLines(file.raw, "lint:stderr(");
    files.push_back(std::move(file));
  }

  std::vector<std::unique_ptr<Pass>> passes;
  passes.push_back(gnn4tdl_lint::MakeStylePass());
  passes.push_back(gnn4tdl_lint::MakeLockPass());

  const std::set<std::string> wanted = SplitCommaSet(pass_filter);
  for (const std::string& name : wanted) {
    const bool known =
        std::any_of(passes.begin(), passes.end(),
                    [&](const auto& p) { return name == p->name(); });
    if (!known) {
      std::fprintf(stderr, "gnn4tdl_lint: unknown pass '%s'\n", name.c_str());
      return 2;
    }
  }

  std::vector<Violation> violations;
  size_t passes_run = 0;
  for (const auto& pass : passes) {
    if (!wanted.empty() && !wanted.count(pass->name())) continue;
    const size_t before = violations.size();
    pass->Run(files, &violations);
    ++passes_run;
    if (verbose) {
      std::fprintf(stderr, "gnn4tdl_lint: pass %-6s %zu violation(s)\n",
                   pass->name(), violations.size() - before);
    }
  }

  std::stable_sort(violations.begin(), violations.end(),
                   [](const Violation& a, const Violation& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  for (const Violation& v : violations) {
    std::printf("%s:%d: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }
  std::printf("gnn4tdl_lint: %zu violation(s) in %zu file(s), %zu pass(es)\n",
              violations.size(), files.size(), passes_run);

  if (!expect.empty()) {
    // Self-test mode: the set of rules that fired must match exactly.
    const std::set<std::string> expected = SplitCommaSet(expect);
    std::set<std::string> fired;
    for (const Violation& v : violations) fired.insert(v.rule);
    if (fired == expected) {
      std::printf("gnn4tdl_lint: self-test OK (%zu rules fired)\n",
                  fired.size());
      return 0;
    }
    for (const std::string& r : expected) {
      if (!fired.count(r))
        std::printf("gnn4tdl_lint: self-test MISSING rule %s\n", r.c_str());
    }
    for (const std::string& r : fired) {
      if (!expected.count(r))
        std::printf("gnn4tdl_lint: self-test UNEXPECTED rule %s\n", r.c_str());
    }
    return 1;
  }

  return violations.empty() ? 0 : 1;
}
