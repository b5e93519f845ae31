//===- support/Diagnostics.cpp - Severity-tagged analysis findings --------===//

#include "support/Diagnostics.h"

#include "support/OStream.h"

using namespace icores;

const char *icores::severityName(Severity Sev) {
  switch (Sev) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "unknown";
}

Finding &Finding::note(std::string Key, std::string Value) {
  Notes.emplace_back(std::move(Key), std::move(Value));
  return *this;
}

Finding &DiagnosticEngine::report(Severity Sev, std::string Id,
                                  std::string Message) {
  Finding F;
  F.Id = std::move(Id);
  F.Sev = Sev;
  F.Message = std::move(Message);
  Findings.push_back(std::move(F));
  return Findings.back();
}

size_t DiagnosticEngine::count(Severity Sev) const {
  size_t N = 0;
  for (const Finding &F : Findings)
    if (F.Sev == Sev)
      ++N;
  return N;
}

bool DiagnosticEngine::hasFinding(const std::string &Id) const {
  for (const Finding &F : Findings)
    if (F.Id == Id)
      return true;
  return false;
}

size_t DiagnosticEngine::dedupe() {
  // Quadratic over the findings of one run — lint runs report dozens of
  // findings, not thousands, and this keeps first-occurrence order
  // without imposing an ordering or hash on Finding.
  std::vector<Finding> Unique;
  Unique.reserve(Findings.size());
  for (Finding &F : Findings) {
    bool Seen = false;
    for (const Finding &U : Unique)
      Seen |= U.Id == F.Id && U.Sev == F.Sev && U.Message == F.Message &&
              U.Notes == F.Notes;
    if (!Seen)
      Unique.push_back(std::move(F));
  }
  size_t Removed = Findings.size() - Unique.size();
  Findings = std::move(Unique);
  return Removed;
}

std::string DiagnosticEngine::firstErrorMessage() const {
  for (const Finding &F : Findings)
    if (F.Sev == Severity::Error)
      return F.Message;
  return std::string();
}

void DiagnosticEngine::printText(OStream &OS) const {
  for (const Finding &F : Findings) {
    OS << severityName(F.Sev) << ": " << F.Id << ": " << F.Message;
    if (!F.Notes.empty()) {
      OS << " [";
      for (size_t N = 0; N != F.Notes.size(); ++N) {
        if (N != 0)
          OS << ", ";
        OS << F.Notes[N].first << "=" << F.Notes[N].second;
      }
      OS << "]";
    }
    OS << "\n";
  }
}

void icores::writeJsonString(OStream &OS, const std::string &S) {
  OS << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        const char *Hex = "0123456789abcdef";
        char Buf[7] = {'\\', 'u', '0', '0', Hex[(C >> 4) & 0xf],
                       Hex[C & 0xf], 0};
        OS << Buf;
      } else {
        OS << C;
      }
    }
  }
  OS << '"';
}

void DiagnosticEngine::printJson(OStream &OS) const {
  OS << "{\n";
  OS << "  \"schema\": \"icores.lint.v1\",\n";
  OS << "  \"errors\": " << static_cast<unsigned long long>(numErrors())
     << ",\n";
  OS << "  \"warnings\": " << static_cast<unsigned long long>(numWarnings())
     << ",\n";
  OS << "  \"notes\": " << static_cast<unsigned long long>(count(Severity::Note))
     << ",\n";
  OS << "  \"findings\": [";
  for (size_t I = 0; I != Findings.size(); ++I) {
    const Finding &F = Findings[I];
    OS << (I == 0 ? "\n" : ",\n");
    OS << "    {\"id\": ";
    writeJsonString(OS, F.Id);
    OS << ", \"severity\": \"" << severityName(F.Sev) << "\", \"message\": ";
    writeJsonString(OS, F.Message);
    OS << ",\n     \"notes\": {";
    for (size_t N = 0; N != F.Notes.size(); ++N) {
      if (N != 0)
        OS << ", ";
      writeJsonString(OS, F.Notes[N].first);
      OS << ": ";
      writeJsonString(OS, F.Notes[N].second);
    }
    OS << "}}";
  }
  OS << (Findings.empty() ? "]\n" : "\n  ]\n");
  OS << "}\n";
}
