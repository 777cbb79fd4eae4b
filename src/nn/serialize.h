#pragma once

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "nn/module.h"

namespace gnn4tdl {

class BoundedReader;
class TextWriter;

/// Writes every parameter of `module` (in Parameters() order, which is
/// deterministic for a fixed module structure) to a text file. Values are
/// serialized with 17 significant digits, so doubles round-trip exactly.
[[nodiscard]] Status SaveParameters(const Module& module,
                                    const std::string& path);

/// Loads parameters saved by SaveParameters back into `module`. The module
/// must have the same structure (same parameter count and shapes) as the one
/// that was saved — construct it with the same options first. A non-finite
/// value is IoError.
[[nodiscard]] Status LoadParameters(const Module& module,
                                    const std::string& path);

/// The same format as a block inside a larger artifact (e.g. a
/// serve/FrozenModel file). The block is self-delimiting: it records its own
/// parameter count, so the reader is left immediately after the block.
[[nodiscard]] Status SaveParameters(const Module& module, TextWriter& out);
[[nodiscard]] Status LoadParameters(const Module& module, BoundedReader& in);

/// Stream variants: one write of the block, and a parse of the rest of the
/// stream.
[[nodiscard]] Status SaveParameters(const Module& module, std::ostream& out);
[[nodiscard]] Status LoadParameters(const Module& module, std::istream& in);

}  // namespace gnn4tdl
