#include "data/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/text_io.h"

namespace gnn4tdl {

namespace {

constexpr char kDelimiter = ',';

bool IsMissing(std::string_view cell) {
  return cell.empty() || cell == "NA" || cell == "NaN" || cell == "nan" ||
         cell == "?";
}

/// The cell without surrounding spaces and tabs or one leading '+', which
/// std::from_chars does not accept.
std::string_view NumberSpelling(std::string_view cell) {
  const size_t first = cell.find_first_not_of(" \t");
  if (first == std::string_view::npos) return {};
  cell = cell.substr(first, cell.find_last_not_of(" \t") - first + 1);
  if (cell.size() > 1 && cell[0] == '+' && cell[1] != '-') {
    cell.remove_prefix(1);
  }
  return cell;
}

/// Reads a cell of a would-be numerical column; false when it is text. A
/// missing marker or a NaN spelling reads as NaN, an infinity or a value
/// outside double range as infinity, which the caller rejects.
bool ParseCell(std::string_view cell, double* value) {
  const std::string_view s = NumberSpelling(cell);
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *value);
  if (IsMissing(cell)) {
    *value = std::numeric_limits<double>::quiet_NaN();
  } else if (s.empty() || ptr != s.data() + s.size()) {
    return false;
  } else if (ec != std::errc()) {
    *value = std::numeric_limits<double>::infinity();
  }
  return true;
}

/// Appends the cells of one line.
void SplitCells(std::string_view line, std::vector<std::string_view>* cells) {
  for (size_t start = 0;;) {
    const size_t comma = line.find(kDelimiter, start);
    cells->push_back(line.substr(start, comma - start));
    if (comma == std::string_view::npos) return;
    start = comma + 1;
  }
}

/// InvalidArgument when ReadCsv would read categorical column `col` back as
/// something else: a category that is a missing marker reads back as a
/// missing cell, and a column none of whose written cells is text reads back
/// numerical.
Status CheckCategoriesReadBack(const Column& col) {
  auto refuse = [&col](const std::string& problem) {
    return Status::InvalidArgument("categorical column '" + col.name + "' " +
                                   problem);
  };
  for (const std::string& category : col.categories) {
    if (IsMissing(category)) {
      return refuse("category '" + category + "' reads back as missing");
    }
  }
  const std::string* first = nullptr;  // the first written category
  for (size_t r = 0; r < col.codes.size(); ++r) {
    if (col.IsMissing(r)) continue;
    const std::string& category =
        col.categories[static_cast<size_t>(col.codes[r])];
    double value = 0.0;
    if (!ParseCell(category, &value)) return Status::OK();
    if (first == nullptr) first = &category;
  }
  if (first == nullptr) {
    return refuse("has no written cell, so it reads back numerical");
  }
  return refuse("reads back numerical: category '" + *first +
                "' and every other written one is a number");
}

}  // namespace

StatusOr<TabularDataset> ReadCsv(const std::string& path,
                                 const CsvReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  const std::string text = ReadAll(in);
  if (text.empty()) return Status::IoError("empty file: " + path);

  // Views into `text`: the header, the cells row-major, each row's file line.
  std::vector<std::string_view> header, cells;
  std::vector<size_t> lines;
  auto row = [&](size_t line) {
    return "'" + path + "' row " + std::to_string(line);
  };
  for (size_t pos = 0, line_no = 1; pos < text.size(); ++line_no) {
    const size_t end = std::min(text.find('\n', pos), text.size());
    std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line_no == 1) {
      if (line.empty()) return Status::IoError("no header in '" + path + "'");
      SplitCells(line, &header);
    } else if (!line.empty()) {
      const size_t before = cells.size();
      SplitCells(line, &cells);
      if (cells.size() - before != header.size()) {
        return Status::IoError(row(line_no) + " has " +
                               std::to_string(cells.size() - before) +
                               " cells, expected " +
                               std::to_string(header.size()));
      }
      lines.push_back(line_no);
    }
  }
  const size_t num_rows = lines.size();
  auto cell = [&](size_t r, size_t c) { return cells[r * header.size() + c]; };
  auto error = [&](size_t r, size_t c, const std::string& problem) {
    return Status::IoError(row(lines[r]) + ", column '" +
                           std::string(header[c]) + "': '" +
                           std::string(cell(r, c)) + "' " + problem);
  };
  // Codes column `c` in order of first appearance; a missing cell is -1
  // unless `code_missing` (labels code every cell).
  auto code_column = [&](size_t c, bool code_missing,
                         std::vector<std::string>* categories) {
    std::map<std::string_view, int> index;
    std::vector<int> codes(num_rows, -1);
    for (size_t r = 0; r < num_rows; ++r) {
      if (!code_missing && IsMissing(cell(r, c))) continue;
      const auto [it, inserted] =
          index.emplace(cell(r, c), static_cast<int>(categories->size()));
      if (inserted) categories->emplace_back(cell(r, c));
      codes[r] = it->second;
    }
    return codes;
  };

  TabularDataset data(num_rows);
  for (size_t c = 0; c < header.size(); ++c) {
    const std::string name(header[c]);
    // Numerical iff no cell is text.
    std::vector<double> values(num_rows);
    bool numeric = true;
    for (size_t r = 0; r < num_rows && numeric; ++r) {
      numeric = ParseCell(cell(r, c), &values[r]);
    }

    if (options.label_column.empty() || name != options.label_column) {
      if (!numeric) {
        std::vector<std::string> categories;
        std::vector<int> codes = code_column(c, false, &categories);
        GNN4TDL_RETURN_IF_ERROR(data.AddCategoricalColumn(
            name, std::move(codes), std::move(categories)));
        continue;
      }
      for (size_t r = 0; r < num_rows; ++r) {
        if (std::isinf(values[r])) return error(r, c, "is not a finite number");
      }
      GNN4TDL_RETURN_IF_ERROR(data.AddNumericColumn(name, std::move(values)));
    } else if (options.regression_label) {
      for (size_t r = 0; r < num_rows; ++r) {
        if (!ParseWholeNumber(NumberSpelling(cell(r, c)), &values[r])) {
          return error(r, c, "is not a finite regression label");
        }
      }
      GNN4TDL_RETURN_IF_ERROR(data.SetRegressionLabels(std::move(values)));
    } else {
      std::vector<std::string> classes;
      std::vector<int> labels(num_rows);
      if (!numeric) labels = code_column(c, true, &classes);
      // A numeric class label indexes a class, so it must be an integer
      // below the row count: anything else would truncate, overflow the
      // cast, or size the class count from the file.
      int num_classes = static_cast<int>(classes.size());
      for (size_t r = 0; r < num_rows && numeric; ++r) {
        const double v = values[r];
        if (!(v >= 0.0 && v < static_cast<double>(num_rows)) ||
            v != std::floor(v)) {
          return error(r, c, "is not a class label in [0, " +
                                 std::to_string(num_rows) + ")");
        }
        labels[r] = static_cast<int>(v);
        num_classes = std::max(num_classes, labels[r] + 1);
      }
      GNN4TDL_RETURN_IF_ERROR(data.SetClassLabels(
          std::move(labels), num_classes,
          num_classes == 2 ? TaskType::kBinaryClassification
                           : TaskType::kMultiClassification));
    }
  }
  if (!options.label_column.empty() && data.task() == TaskType::kNone) {
    return Status::NotFound("label column '" + options.label_column +
                            "' not in header");
  }
  return data;
}

Status WriteCsv(const TabularDataset& data, const std::string& path) {
  // A name or category holding the delimiter or a line break would read
  // back split differently.
  auto check = [](std::string_view what, const std::string& text) {
    if (text.find_first_of(",\r\n") == std::string::npos) return Status::OK();
    return Status::InvalidArgument(std::string(what) + " '" + text +
                                   "' holds ',', '\\r' or '\\n'");
  };
  const bool has_class = !data.class_labels().empty();
  const bool has_reg = !data.regression_labels().empty();
  const char* label_sep = data.NumCols() > 0 ? "," : "";

  TextWriter out;
  for (size_t c = 0; c < data.NumCols(); ++c) {
    const Column& col = data.column(c);
    GNN4TDL_RETURN_IF_ERROR(check("column name", col.name));
    for (const std::string& category : col.categories) {
      GNN4TDL_RETURN_IF_ERROR(check("category", category));
    }
    if (col.type == ColumnType::kCategorical) {
      GNN4TDL_RETURN_IF_ERROR(CheckCategoriesReadBack(col));
    }
    out << (c > 0 ? "," : "") << col.name;
  }
  if (has_class || has_reg) out << label_sep << "label";
  out << '\n';

  for (size_t r = 0; r < data.NumRows(); ++r) {
    for (size_t c = 0; c < data.NumCols(); ++c) {
      if (c > 0) out << ',';
      const Column& col = data.column(c);
      if (col.IsMissing(r)) continue;  // empty cell
      if (col.type == ColumnType::kNumerical) {
        out << col.numeric[r];
      } else {
        out << col.categories[static_cast<size_t>(col.codes[r])];
      }
    }
    if (has_class) out << label_sep << data.class_labels()[r];
    else if (has_reg) out << label_sep << data.regression_labels()[r];
    out << '\n';
  }

  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open '" + path + "' for writing");
  return out.WriteTo(file, "'" + path + "'");
}

}  // namespace gnn4tdl
