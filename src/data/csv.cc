#include "data/csv.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

namespace gnn4tdl {

namespace {

std::vector<std::string> SplitLine(const std::string& line, char delim) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, delim)) cells.push_back(cell);
  // Trailing delimiter yields one more empty cell.
  if (!line.empty() && line.back() == delim) cells.push_back("");
  return cells;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

StatusOr<TabularDataset> ReadCsv(const std::string& path,
                                 const CsvReadOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");

  std::string line;
  if (!std::getline(in, line)) return Status::IoError("empty file: " + path);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::vector<std::string> header = SplitLine(line, options.delimiter);
  const size_t num_cols = header.size();
  if (num_cols == 0) return Status::IoError("no columns in header");

  std::vector<std::vector<std::string>> cells(num_cols);
  size_t num_rows = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string> row = SplitLine(line, options.delimiter);
    if (row.size() != num_cols) {
      return Status::IoError("row " + std::to_string(num_rows + 2) + " has " +
                             std::to_string(row.size()) + " cells, expected " +
                             std::to_string(num_cols));
    }
    for (size_t c = 0; c < num_cols; ++c) cells[c].push_back(std::move(row[c]));
    ++num_rows;
  }

  auto is_missing = [&](const std::string& s) {
    return std::find(options.missing_markers.begin(),
                     options.missing_markers.end(),
                     s) != options.missing_markers.end();
  };
  auto forced_categorical = [&](const std::string& name) {
    return std::find(options.categorical_columns.begin(),
                     options.categorical_columns.end(),
                     name) != options.categorical_columns.end();
  };

  TabularDataset data(num_rows);
  std::vector<int> class_labels;
  std::vector<double> reg_labels;
  int max_label = -1;
  bool has_label = false;

  for (size_t c = 0; c < num_cols; ++c) {
    const bool is_label = !options.label_column.empty() &&
                          header[c] == options.label_column;
    // Infer type: numerical iff all non-missing cells parse as doubles.
    bool numeric = !forced_categorical(header[c]);
    if (numeric) {
      for (const std::string& s : cells[c]) {
        double v;
        if (!is_missing(s) && !ParseDouble(s, &v)) {
          numeric = false;
          break;
        }
      }
    }

    if (is_label) {
      has_label = true;
      if (options.regression_label) {
        reg_labels.resize(num_rows);
        for (size_t r = 0; r < num_rows; ++r) {
          double v;
          if (!ParseDouble(cells[c][r], &v)) {
            return Status::IoError("non-numeric regression label at row " +
                                   std::to_string(r + 2));
          }
          reg_labels[r] = v;
        }
      } else {
        class_labels.resize(num_rows);
        std::map<std::string, int> label_codes;
        for (size_t r = 0; r < num_rows; ++r) {
          const std::string& s = cells[c][r];
          double v;
          int y;
          if (numeric && ParseDouble(s, &v)) {
            // A numeric class label indexes a class, so it must be a finite
            // integer below the row count: anything else would truncate,
            // overflow the cast, or size the class count from the file.
            if (!(v >= 0.0 && v < static_cast<double>(num_rows)) ||
                v != std::floor(v)) {
              return Status::IoError(
                  "class label '" + s + "' at row " + std::to_string(r + 2) +
                  " is not an integer in [0, " + std::to_string(num_rows) +
                  ")");
            }
            y = static_cast<int>(v);
          } else {
            auto [it, inserted] =
                label_codes.emplace(s, static_cast<int>(label_codes.size()));
            (void)inserted;
            y = it->second;
          }
          class_labels[r] = y;
          max_label = std::max(max_label, y);
        }
      }
      continue;
    }

    if (numeric) {
      std::vector<double> values(num_rows);
      for (size_t r = 0; r < num_rows; ++r) {
        if (is_missing(cells[c][r])) {
          values[r] = std::numeric_limits<double>::quiet_NaN();
        } else {
          ParseDouble(cells[c][r], &values[r]);
        }
      }
      GNN4TDL_RETURN_IF_ERROR(data.AddNumericColumn(header[c], std::move(values)));
    } else {
      std::map<std::string, int> codes_map;
      std::vector<int> codes(num_rows);
      std::vector<std::string> categories;
      for (size_t r = 0; r < num_rows; ++r) {
        const std::string& s = cells[c][r];
        if (is_missing(s)) {
          codes[r] = -1;
          continue;
        }
        auto it = codes_map.find(s);
        if (it == codes_map.end()) {
          it = codes_map.emplace(s, static_cast<int>(categories.size())).first;
          categories.push_back(s);
        }
        codes[r] = it->second;
      }
      GNN4TDL_RETURN_IF_ERROR(data.AddCategoricalColumn(
          header[c], std::move(codes), std::move(categories)));
    }
  }

  if (has_label) {
    if (options.regression_label) {
      GNN4TDL_RETURN_IF_ERROR(data.SetRegressionLabels(std::move(reg_labels)));
    } else {
      int num_classes = max_label + 1;
      GNN4TDL_RETURN_IF_ERROR(data.SetClassLabels(
          std::move(class_labels), num_classes,
          num_classes == 2 ? TaskType::kBinaryClassification
                           : TaskType::kMultiClassification));
    }
  } else if (!options.label_column.empty()) {
    return Status::NotFound("label column '" + options.label_column +
                            "' not in header");
  }
  return data;
}

Status WriteCsv(const TabularDataset& data, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");

  const bool has_class = !data.class_labels().empty();
  const bool has_reg = !data.regression_labels().empty();

  for (size_t c = 0; c < data.NumCols(); ++c) {
    if (c > 0) out << ',';
    out << data.column(c).name;
  }
  if (has_class || has_reg) {
    if (data.NumCols() > 0) out << ',';
    out << "label";
  }
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
    if (has_class) {
      if (data.NumCols() > 0) out << ',';
      out << data.class_labels()[r];
    } else if (has_reg) {
      if (data.NumCols() > 0) out << ',';
      out << data.regression_labels()[r];
    }
    out << '\n';
  }
  if (!out) return Status::IoError("write failure on '" + path + "'");
  return Status::OK();
}

}  // namespace gnn4tdl
