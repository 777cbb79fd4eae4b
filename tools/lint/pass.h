// Pass interface for the gnn4tdl multi-pass linter. A pass sees the whole
// pre-tokenized tree at once (some rules are cross-file: the status-discard
// rule harvests declarations tree-wide, the lock pass indexes mutex members
// across classes) and appends violations.
#pragma once

#include <memory>
#include <vector>

#include "common.h"

namespace gnn4tdl_lint {

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  virtual void Run(const std::vector<SourceFile>& files,
                   std::vector<Violation>* out) = 0;
};

// Style/idiom invariants: status-discard, banned-call, cout-in-src,
// raw-new-delete, raw-thread, raw-deque, raw-clock, raw-simd, raw-sleep,
// raw-number-parse, raw-stderr, fused-raw-alloc, missing-pragma-once,
// using-namespace-in-header.
std::unique_ptr<Pass> MakeStylePass();

// Lock-discipline invariants over the annotated Mutex layer
// (src/common/mutex.h + src/common/thread_annotations.h): lock-raw-mutex,
// lock-unannotated-field, lock-unknown-mutex, lock-double-acquire,
// lock-requires-public.
std::unique_ptr<Pass> MakeLockPass();

}  // namespace gnn4tdl_lint
