#pragma once

#include <cstdint>

namespace gnn4tdl::obs {

/// Which observability machinery is switched on. All hook points in the
/// library (kernel scopes, trainer emission, serving metrics) gate on one
/// relaxed atomic load of this bitmask, so a binary that never enables
/// anything pays a single predictable branch per hook.
enum ObsFlag : uint32_t {
  kObsTracing = 1u << 0,         // TraceSpan records spans
  kObsMetrics = 1u << 1,         // trainer/serve emit to MetricsRegistry::Global()
  kObsKernelCounters = 1u << 2,  // kernels accumulate FLOP/byte totals
};

/// Current bitmask (relaxed load — the only cost of a disabled hook).
uint32_t ObsFlags();

namespace internal {
/// Sets or clears one flag. Called by Tracer::Start/Stop,
/// EnableMetrics/DisableMetrics, and KernelCounters::Enable/Disable — not by
/// user code directly.
void SetObsFlag(ObsFlag flag, bool on);
}  // namespace internal

}  // namespace gnn4tdl::obs
