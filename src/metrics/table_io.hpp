// Fixed-width ASCII table emitter for the bench harness.
//
// Every bench binary prints the rows/series the corresponding paper table or
// figure reports; `Table` keeps that output aligned and greppable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ownsim {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds a row; must have as many cells as the header.
  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with `precision` digits after the point.
  static std::string num(double value, int precision = 3);

  /// Renders with column alignment and a header rule.
  void print(std::ostream& os) const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ownsim
