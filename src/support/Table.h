//===- support/Table.h - ASCII table rendering ------------------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TablePrinter renders the paper-style result tables (Tables 1-4) as
/// aligned ASCII. Benchmarks build one row per configuration and
/// print to stdout so runs can be diffed against EXPERIMENTS.md.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_SUPPORT_TABLE_H
#define ICORES_SUPPORT_TABLE_H

#include <string>
#include <vector>

namespace icores {

class OStream;

/// Accumulates rows of cells and renders them with aligned columns.
class TablePrinter {
public:
  /// Creates a table with the given column \p Headers.
  explicit TablePrinter(std::vector<std::string> Headers);

  /// Appends one row; must have exactly as many cells as there are headers.
  void addRow(std::vector<std::string> Cells);

  /// Convenience: starts an empty row to be filled with appendCell().
  void startRow();

  /// Appends one cell to the row opened by startRow().
  void appendCell(std::string Cell);

  unsigned numRows() const { return static_cast<unsigned>(Rows.size()); }
  unsigned numColumns() const { return static_cast<unsigned>(Headers.size()); }

  /// Renders as aligned ASCII with a header separator line.
  void print(OStream &OS) const;

  /// Renders to a string using print().
  std::string toString() const;

private:
  std::vector<std::string> Headers;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace icores

#endif // ICORES_SUPPORT_TABLE_H
