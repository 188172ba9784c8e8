#include "metrics/table_io.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ownsim {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("Table: row width mismatch");
  }
  rows_.push_back(std::move(row));
}

std::string Table::num(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ") << std::left
         << std::setw(static_cast<int>(width[c])) << row[c];
    }
    os << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    total += width[c] + (c == 0 ? 0 : 2);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

}  // namespace ownsim
