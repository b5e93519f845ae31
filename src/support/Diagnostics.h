//===- support/Diagnostics.h - Severity-tagged analysis findings -*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Findings infrastructure shared by the static analyses (program
/// validation, plan verification, access audit, schedule race check) and
/// the `mpdata_cli lint` driver. A Finding carries a stable
/// machine-readable id ("access.read.outside-window"), a severity, a
/// human-readable message and ordered key/value context notes. A
/// DiagnosticEngine accumulates findings — analyses report everything they
/// see instead of stopping at the first error — and renders them as text
/// or as `icores.lint.v1` JSON.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_SUPPORT_DIAGNOSTICS_H
#define ICORES_SUPPORT_DIAGNOSTICS_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace icores {

class OStream;

/// How bad a finding is. Errors make `mpdata_cli lint` exit nonzero;
/// warnings flag quantified inefficiencies (e.g. over-declared windows
/// inflating the Table 2 redundancy budget); notes are informational.
enum class Severity {
  Note,
  Warning,
  Error,
};

/// Lowercase severity name ("error", "warning", "note").
const char *severityName(Severity Sev);

/// Writes \p S as a JSON string literal (quotes included), escaping
/// quotes, backslashes and control characters. Shared by the
/// `icores.lint.v1` and `icores.prove.v1` writers.
void writeJsonString(OStream &OS, const std::string &S);

/// One finding of one analysis.
struct Finding {
  /// Stable dotted identifier, e.g. "race.intra.read-write". Tests and
  /// downstream tooling match on this, never on the message text.
  std::string Id;
  Severity Sev = Severity::Error;
  /// Human-readable one-line description.
  std::string Message;
  /// Ordered context notes (stage/array/island names, regions, counts).
  std::vector<std::pair<std::string, std::string>> Notes;

  /// Appends a context note; returns *this for chaining.
  Finding &note(std::string Key, std::string Value);
};

/// Accumulates findings across analyses and renders them.
class DiagnosticEngine {
public:
  /// Records a finding and returns a reference for adding notes. The
  /// reference is invalidated by the next report() call.
  Finding &report(Severity Sev, std::string Id, std::string Message);

  const std::vector<Finding> &findings() const { return Findings; }
  size_t numFindings() const { return Findings.size(); }

  /// Mutable access to an already-reported finding (drivers use this to
  /// attach context notes — e.g. the plan label — after an analysis ran).
  Finding &finding(size_t Index) { return Findings.at(Index); }
  size_t count(Severity Sev) const;
  size_t numErrors() const { return count(Severity::Error); }
  size_t numWarnings() const { return count(Severity::Warning); }
  bool hasErrors() const { return numErrors() != 0; }

  /// True when any finding carries the given stable id.
  bool hasFinding(const std::string &Id) const;

  /// Message of the first finding with severity Error, or "" when clean.
  std::string firstErrorMessage() const;

  /// Drops exact duplicate findings (same id, severity, message and
  /// notes), keeping the first occurrence and the overall order. Analyses
  /// that replay a schedule — e.g. each fused step of a temporal plan —
  /// can report the same defect once per replay; drivers dedupe before
  /// rendering so a finding appears once per distinct id+context. Returns
  /// the number of findings removed.
  size_t dedupe();

  /// Drops all findings.
  void clear() { Findings.clear(); }

  /// Renders one finding per line: "error: <id>: <message> [k=v, ...]".
  void printText(OStream &OS) const;

  /// Renders the `icores.lint.v1` JSON document (see DESIGN.md §7).
  void printJson(OStream &OS) const;

private:
  std::vector<Finding> Findings;
};

} // namespace icores

#endif // ICORES_SUPPORT_DIAGNOSTICS_H
