//===- support/OStream.h - Lightweight output streams ----------*- C++ -*-===//
//
// Part of the icores project: islands-of-cores for heterogeneous stencils.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal raw_ostream-style output abstraction. The project follows the
/// LLVM convention of avoiding <iostream> in library code; these streams
/// provide formatted output to FILE* handles and std::string buffers.
///
//===----------------------------------------------------------------------===//

#ifndef ICORES_SUPPORT_OSTREAM_H
#define ICORES_SUPPORT_OSTREAM_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace icores {

/// Abstract byte-oriented output stream with operator<< conveniences.
///
/// Deliberately tiny: concrete sinks override a single write() hook. The
/// class carries a vtable, so it provides an out-of-line anchor.
class OStream {
public:
  virtual ~OStream();

  /// Writes \p Size bytes starting at \p Data to the underlying sink.
  virtual void write(const char *Data, size_t Size) = 0;

  OStream &operator<<(std::string_view S) {
    write(S.data(), S.size());
    return *this;
  }
  OStream &operator<<(const char *S) { return *this << std::string_view(S); }
  OStream &operator<<(const std::string &S) {
    return *this << std::string_view(S);
  }
  OStream &operator<<(char C) {
    write(&C, 1);
    return *this;
  }
  OStream &operator<<(bool B) { return *this << (B ? "true" : "false"); }
  OStream &operator<<(long long N);
  OStream &operator<<(unsigned long long N);
  OStream &operator<<(int N) { return *this << static_cast<long long>(N); }
  OStream &operator<<(unsigned N) {
    return *this << static_cast<unsigned long long>(N);
  }
  OStream &operator<<(long N) { return *this << static_cast<long long>(N); }
  OStream &operator<<(unsigned long N) {
    return *this << static_cast<unsigned long long>(N);
  }
  OStream &operator<<(double D);
};

/// Stream sink writing to a stdio FILE handle (not owned).
class FileOStream : public OStream {
public:
  explicit FileOStream(std::FILE *F) : File(F) {}

  void write(const char *Data, size_t Size) override;

private:
  std::FILE *File;
};

/// Stream sink appending to a caller-owned std::string.
class StringOStream : public OStream {
public:
  explicit StringOStream(std::string &Buf) : Buffer(Buf) {}

  void write(const char *Data, size_t Size) override;

  const std::string &str() const { return Buffer; }

private:
  std::string &Buffer;
};

/// Returns a process-wide stream bound to stdout.
OStream &outs();

} // namespace icores

#endif // ICORES_SUPPORT_OSTREAM_H
