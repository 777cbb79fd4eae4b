#pragma once

#include <string>

#include "common/status.h"
#include "data/tabular.h"

namespace gnn4tdl {

/// Options for ReadCsv.
struct CsvReadOptions {
  /// Name of the label column ("" = unlabeled dataset).
  std::string label_column;
  /// Treat the label as regression targets instead of class labels.
  bool regression_label = false;
};

/// Parses a ','-separated file with a header row into a TabularDataset.
/// Blank lines are skipped and a trailing '\r' is dropped; errors name the
/// file line. Cell rules:
///   - "", "NA", "NaN", "nan" and "?" are missing in every column;
///   - a number is read by std::from_chars after trimming spaces and tabs
///     and one leading '+' (" 2.5", "+2.5", ".5" and "5." are numbers, hex
///     is not), and any spelling of NaN is a missing number;
///   - a column is numerical iff every cell is a number or missing, else
///     categorical, with codes assigned in order of first appearance;
///   - an infinite or out-of-range number in a numerical column is an
///     IoError naming the row, the column and the value, as is a class label
///     that is not an integer in [0, rows) in a numerical label column, and
///     a regression label that is not a finite number.
StatusOr<TabularDataset> ReadCsv(const std::string& path,
                                 const CsvReadOptions& options = {});

/// Writes `data` (features + label column "label" if present) as CSV, with
/// numbers at 17 significant digits so they read back bit-exact. A column
/// that ReadCsv would read back as something else is InvalidArgument: a
/// column name or category holding ',', '\r' or '\n', a category that is a
/// missing marker, and a categorical column none of whose written cells is
/// text (e.g. zip codes "10115", "20095"), which reads back numerical.
Status WriteCsv(const TabularDataset& data, const std::string& path);

}  // namespace gnn4tdl
