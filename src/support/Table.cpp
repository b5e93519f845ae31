//===- support/Table.cpp - ASCII table rendering -------------------------===//

#include "support/Table.h"

#include "support/Error.h"
#include "support/OStream.h"

#include <algorithm>
#include <cassert>

using namespace icores;

TablePrinter::TablePrinter(std::vector<std::string> Hdrs)
    : Headers(std::move(Hdrs)) {
  ICORES_CHECK(!Headers.empty(), "table must have at least one column");
}

void TablePrinter::addRow(std::vector<std::string> Cells) {
  ICORES_CHECK(Cells.size() == Headers.size(),
               "row width does not match header count");
  Rows.push_back(std::move(Cells));
}

void TablePrinter::startRow() { Rows.emplace_back(); }

void TablePrinter::appendCell(std::string Cell) {
  ICORES_CHECK(!Rows.empty(), "appendCell() before startRow()");
  ICORES_CHECK(Rows.back().size() < Headers.size(), "row is already full");
  Rows.back().push_back(std::move(Cell));
}

void TablePrinter::print(OStream &OS) const {
  std::vector<size_t> Widths(Headers.size());
  for (size_t Col = 0; Col != Headers.size(); ++Col)
    Widths[Col] = Headers[Col].size();
  for (const auto &Row : Rows)
    for (size_t Col = 0; Col != Row.size(); ++Col)
      Widths[Col] = std::max(Widths[Col], Row[Col].size());

  auto printRow = [&](const std::vector<std::string> &Cells) {
    for (size_t Col = 0; Col != Headers.size(); ++Col) {
      std::string Cell = Col < Cells.size() ? Cells[Col] : std::string();
      OS << (Col == 0 ? "| " : " ");
      Cell.resize(Widths[Col], ' ');
      OS << Cell << " |";
    }
    OS << '\n';
  };

  printRow(Headers);
  for (size_t Col = 0; Col != Headers.size(); ++Col) {
    OS << (Col == 0 ? "|-" : "-");
    OS << std::string(Widths[Col], '-') << "-|";
  }
  OS << '\n';
  for (const auto &Row : Rows)
    printRow(Row);
}

std::string TablePrinter::toString() const {
  std::string Buf;
  StringOStream OS(Buf);
  print(OS);
  return Buf;
}
