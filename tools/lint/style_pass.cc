// Style/idiom pass: the original gnn4tdl_lint rule set, plus raw-sleep.
//
//   status-discard            A Status/StatusOr-returning call used as a bare
//                             expression statement. (The declared set is
//                             harvested from the tree's headers; `(void)Call()`
//                             is the sanctioned discard idiom and not flagged.)
//   banned-call               rand()/srand(): all randomness must flow through
//                             common/rng.h so runs are reproducible.
//   cout-in-src               std::cout inside src/ — library code reports via
//                             Status or writes to stderr, never stdout.
//   raw-new-delete            new/delete outside the tensor implementation
//                             (src/tensor/); everything else uses containers
//                             and smart pointers. `= delete` declarations are
//                             not flagged.
//   raw-thread                std::thread in src/ outside common/parallel.*,
//                             serve/, and load/ — kernel code must go through
//                             the shared ThreadPool (common/parallel.h).
//   raw-deque                 std::deque in src/ outside src/serve/ — request
//                             queues belong behind the serving subsystem's
//                             admission control.
//   raw-clock                 std::chrono::steady_clock/system_clock in src/
//                             outside obs/ and common/parallel.* — timing
//                             flows through obs::Clock so tests can inject a
//                             FakeClock.
//   raw-simd                  immintrin.h includes or raw _mm*/__m* vector
//                             intrinsics outside src/kernels/.
//   raw-sleep                 std::this_thread::sleep_for in tests/ outside
//                             tests/poll_until.h — sleeping for a fixed time
//                             and hoping is how tests get flaky on loaded
//                             machines; poll a condition with PollUntil
//                             (tests/poll_until.h) instead.
//   raw-stderr                fprintf(stderr, ...) or std::cerr in src/
//                             outside src/obs/ — library code reports
//                             through Status and metrics, not the terminal.
//                             Exempt with a `lint:stderr(reason)` comment on
//                             the write's line or the line above (the CHECK
//                             macros and the trainer's opt-in epoch log).
//   fused-raw-alloc           malloc/calloc/realloc/free or a
//                             std::vector<double|float> scratch buffer in a
//                             fused-kernel TU (any path containing "fused") —
//                             fused ops exist to keep intermediates inside
//                             the arena-backed Matrix storage
//                             (common/arena.h, docs/MEMORY.md); a raw heap
//                             buffer there silently defeats the pool and the
//                             high-water accounting.
//   missing-pragma-once       .h file without a #pragma once line.
//   using-namespace-in-header using-directives in headers leak into every
//                             includer.

#include <set>
#include <sstream>
#include <string>

#include "pass.h"

namespace gnn4tdl_lint {

namespace {

const std::set<std::string> kDeclKeywords = {
    "return", "new",    "delete", "throw",  "co_return", "case",
    "else",   "sizeof", "using",  "typedef", "goto"};

const std::set<std::string> kStatementKeywords = {
    "return",  "if",     "while",  "for",   "switch", "case",  "do",
    "else",    "break",  "continue", "goto", "throw",  "using", "namespace",
    "typedef", "static", "const",  "constexpr", "class", "struct", "enum",
    "public",  "private", "protected", "template", "co_return", "co_await",
    "new",     "delete", "sizeof", "default"};

// Harvests function names from a stripped header. A name declared to return
// Status or StatusOr<...> goes into `status`; a name declared with any other
// `Type name(` pattern goes into `non_status`. The caller subtracts the two:
// a text linter cannot resolve overload sets, so a name that is Status-
// returning in one class and not in another must not be flagged at call
// sites — the compiler's -Werror=unused-result still catches those discards
// with full type info.
void CollectFunctionNames(const std::vector<Token>& tokens,
                          std::set<std::string>* status,
                          std::set<std::string>* non_status) {
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!tokens[i].is_ident) continue;
    const std::string& type_tok = tokens[i].text;
    if (type_tok == "Status" || type_tok == "StatusOr") {
      size_t j = i + 1;
      if (type_tok == "StatusOr") {
        if (j >= tokens.size() || tokens[j].text != "<") continue;
        int depth = 0;
        while (j < tokens.size()) {
          if (tokens[j].text == "<") ++depth;
          if (tokens[j].text == ">") {
            --depth;
            if (depth == 0) {
              ++j;
              break;
            }
          }
          ++j;
        }
      }
      if (j + 1 < tokens.size() && tokens[j].is_ident &&
          tokens[j + 1].text == "(") {
        status->insert(tokens[j].text);
      }
    } else if (i + 2 < tokens.size() && tokens[i + 1].is_ident &&
               tokens[i + 2].text == "(" && !kDeclKeywords.count(type_tok) &&
               !kDeclKeywords.count(tokens[i + 1].text)) {
      non_status->insert(tokens[i + 1].text);
    }
  }
}

void LintFile(const SourceFile& file, const std::set<std::string>& status_fns,
              std::vector<Violation>* out) {
  const std::string& rel_path = file.path;
  const bool is_header = file.is_header();
  const bool in_src = StartsWith(rel_path, "src/");
  const bool in_tests = StartsWith(rel_path, "tests/");
  const bool in_tensor_impl = StartsWith(rel_path, "src/tensor/");
  const bool thread_allowed = StartsWith(rel_path, "src/common/parallel.") ||
                              StartsWith(rel_path, "src/serve/") ||
                              StartsWith(rel_path, "src/load/");
  const bool deque_allowed = StartsWith(rel_path, "src/serve/");
  const bool clock_allowed = StartsWith(rel_path, "src/obs/") ||
                             StartsWith(rel_path, "src/common/parallel.");
  const bool simd_allowed = StartsWith(rel_path, "src/kernels/");
  const bool sleep_allowed = rel_path == "tests/poll_until.h";
  const bool stderr_allowed = StartsWith(rel_path, "src/obs/");
  const bool in_fused_tu = rel_path.find("fused") != std::string::npos;

  if (is_header) {
    bool has_pragma = false;
    std::istringstream lines(file.raw);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("#pragma once", 0) == 0) {
        has_pragma = true;
        break;
      }
    }
    if (!has_pragma) {
      out->push_back({rel_path, 1, "missing-pragma-once",
                      "header has no #pragma once"});
    }
  }

  const std::vector<Token>& tokens = file.tokens;

  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    auto prev = [&](size_t back) -> const Token* {
      return i >= back ? &tokens[i - back] : nullptr;
    };
    auto next = [&](size_t fwd) -> const Token* {
      return i + fwd < tokens.size() ? &tokens[i + fwd] : nullptr;
    };

    if (is_header && t.text == "using" && next(1) &&
        next(1)->text == "namespace") {
      out->push_back({rel_path, t.line, "using-namespace-in-header",
                      "using-directive leaks into every includer"});
    }

    if ((t.text == "rand" || t.text == "srand") && next(1) &&
        next(1)->text == "(") {
      const Token* p = prev(1);
      // Member calls like rng.rand() would be our own API; std::rand and
      // bare rand are the libc RNG.
      if (!p || (p->text != "." && p->text != "->")) {
        out->push_back({rel_path, t.line, "banned-call",
                        t.text + "() bypasses common/rng.h (seeded, "
                        "reproducible) randomness"});
      }
    }

    if (in_src && !thread_allowed && t.text == "thread" && prev(1) &&
        prev(1)->text == "::" && prev(2) && prev(2)->text == "std" &&
        !(next(1) && next(1)->text == "::")) {
      // std::thread::hardware_concurrency() etc. (std::thread:: followed by
      // another ::) is a capability query, not thread construction.
      out->push_back({rel_path, t.line, "raw-thread",
                      "raw std::thread outside common/parallel and serve/; "
                      "use the shared ThreadPool (common/parallel.h)"});
    }

    if (in_src && !deque_allowed && t.text == "deque" && prev(1) &&
        prev(1)->text == "::" && prev(2) && prev(2)->text == "std") {
      out->push_back({rel_path, t.line, "raw-deque",
                      "raw std::deque request queue outside src/serve/; "
                      "queues belong behind the serving subsystem's admission "
                      "control (serve/tenant_engine.h)"});
    }

    if (in_src && !clock_allowed &&
        (t.text == "steady_clock" || t.text == "system_clock") && prev(1) &&
        prev(1)->text == "::" && prev(2) && prev(2)->text == "chrono") {
      out->push_back({rel_path, t.line, "raw-clock",
                      "raw std::chrono clock in library code; route timing "
                      "through obs::Clock (src/obs/clock.h) so tests can "
                      "inject a FakeClock"});
    }

    if (in_tests && !sleep_allowed && t.text == "sleep_for" && prev(1) &&
        prev(1)->text == "::" && prev(2) && prev(2)->text == "this_thread") {
      out->push_back({rel_path, t.line, "raw-sleep",
                      "fixed sleep in a test (flaky on loaded machines); "
                      "poll the condition with PollUntil "
                      "(tests/poll_until.h) instead"});
    }

    if (!simd_allowed && t.is_ident &&
        (t.text == "immintrin" || StartsWith(t.text, "_mm_") ||
         StartsWith(t.text, "_mm256_") || StartsWith(t.text, "_mm512_") ||
         StartsWith(t.text, "__m128") || StartsWith(t.text, "__m256") ||
         StartsWith(t.text, "__m512"))) {
      out->push_back({rel_path, t.line, "raw-simd",
                      "raw SIMD intrinsic '" + t.text +
                          "' outside src/kernels/; use the dispatched kernel "
                          "tier (src/kernels/kernels.h) so a bit-identical "
                          "scalar fallback exists"});
    }

    if (in_fused_tu) {
      if ((t.text == "malloc" || t.text == "calloc" || t.text == "realloc" ||
           t.text == "free") &&
          next(1) && next(1)->text == "(") {
        const Token* p = prev(1);
        // Member calls like arena.free(...) are our own API; std::malloc and
        // bare malloc are the raw heap.
        if (!p || (p->text != "." && p->text != "->")) {
          out->push_back({rel_path, t.line, "fused-raw-alloc",
                          "raw " + t.text +
                              "() in a fused-kernel TU; fused intermediates "
                              "must live in arena-backed Matrix storage "
                              "(common/arena.h, docs/MEMORY.md)"});
        }
      }
      if (t.text == "vector" && next(1) && next(1)->text == "<" && next(2) &&
          (next(2)->text == "double" || next(2)->text == "float")) {
        out->push_back({rel_path, t.line, "fused-raw-alloc",
                        "std::vector<" + next(2)->text +
                            "> scratch buffer in a fused-kernel TU bypasses "
                            "the arena pool and its high-water accounting; "
                            "use Matrix (common/arena.h, docs/MEMORY.md)"});
      }
    }

    if (in_src && !stderr_allowed &&
        !file.stderr_exempt_lines.count(t.line) &&
        !file.stderr_exempt_lines.count(t.line - 1)) {
      const bool is_fprintf_stderr =
          t.text == "fprintf" && next(1) && next(1)->text == "(" && next(2) &&
          next(2)->text == "stderr";
      const bool is_cerr = t.text == "cerr" && prev(1) &&
                           prev(1)->text == "::" && prev(2) &&
                           prev(2)->text == "std";
      if (is_fprintf_stderr || is_cerr) {
        out->push_back({rel_path, t.line, "raw-stderr",
                        "raw stderr write in library code; report through "
                        "Status or metrics, or mark the line "
                        "lint:stderr(reason)"});
      }
    }

    if (in_src && t.text == "cout" && prev(1) && prev(1)->text == "::" &&
        prev(2) && prev(2)->text == "std") {
      out->push_back({rel_path, t.line, "cout-in-src",
                      "library code must not write to stdout; return Status "
                      "or use stderr"});
    }

    if (!in_tensor_impl && t.is_ident &&
        (t.text == "new" || t.text == "delete")) {
      const Token* p = prev(1);
      const bool deleted_fn = t.text == "delete" && p && p->text == "=";
      if (!deleted_fn) {
        out->push_back({rel_path, t.line, "raw-new-delete",
                        "raw " + t.text +
                            " outside the tensor impl; use containers or "
                            "smart pointers"});
      }
    }
  }

  // status-discard: a statement whose entire expression is a call chain
  // ending in a known Status/StatusOr-returning function. Anchored at
  // statement starts (after ; { }), so declarations, assignments, returns,
  // and `(void)` discards never match.
  for (size_t i = 0; i < tokens.size(); ++i) {
    const bool at_start =
        i == 0 || tokens[i - 1].text == ";" || tokens[i - 1].text == "{" ||
        tokens[i - 1].text == "}";
    if (!at_start || !tokens[i].is_ident) continue;
    if (kStatementKeywords.count(tokens[i].text)) continue;

    // Walk the chain: ident ((:: | . | ->) ident)* '('
    size_t j = i;
    std::string last_ident = tokens[j].text;
    while (j + 2 < tokens.size() &&
           (tokens[j + 1].text == "::" || tokens[j + 1].text == "." ||
            tokens[j + 1].text == "->") &&
           tokens[j + 2].is_ident) {
      j += 2;
      last_ident = tokens[j].text;
    }
    if (j + 1 >= tokens.size() || tokens[j + 1].text != "(") continue;
    if (!status_fns.count(last_ident)) continue;

    // Find the matching ')' and require the statement to end right after.
    size_t k = j + 1;
    int depth = 0;
    while (k < tokens.size()) {
      if (tokens[k].text == "(") ++depth;
      if (tokens[k].text == ")") {
        --depth;
        if (depth == 0) break;
      }
      ++k;
    }
    if (k + 1 < tokens.size() && tokens[k + 1].text == ";") {
      out->push_back(
          {rel_path, tokens[i].line, "status-discard",
           "result of Status-returning '" + last_ident +
               "' is discarded; check it, propagate it, or cast to (void)"});
    }
  }
}

class StylePass : public Pass {
 public:
  const char* name() const override { return "style"; }

  void Run(const std::vector<SourceFile>& files,
           std::vector<Violation>* out) override {
    // Harvest Status-returning function names from the tree's headers
    // (fixtures declare their own), minus any name that is also declared
    // with a different return type somewhere.
    std::set<std::string> status_fns;
    std::set<std::string> ambiguous;
    for (const SourceFile& f : files) {
      if (!f.is_header()) continue;
      CollectFunctionNames(f.tokens, &status_fns, &ambiguous);
    }
    for (const std::string& name : ambiguous) status_fns.erase(name);

    for (const SourceFile& f : files) LintFile(f, status_fns, out);
  }
};

}  // namespace

std::unique_ptr<Pass> MakeStylePass() { return std::make_unique<StylePass>(); }

}  // namespace gnn4tdl_lint
