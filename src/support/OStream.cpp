//===- support/OStream.cpp - Lightweight output streams ------------------===//

#include "support/OStream.h"

#include <cinttypes>

using namespace icores;

OStream::~OStream() = default;

OStream &OStream::operator<<(long long N) {
  char Buf[32];
  int Len = std::snprintf(Buf, sizeof(Buf), "%lld", N);
  write(Buf, static_cast<size_t>(Len));
  return *this;
}

OStream &OStream::operator<<(unsigned long long N) {
  char Buf[32];
  int Len = std::snprintf(Buf, sizeof(Buf), "%llu", N);
  write(Buf, static_cast<size_t>(Len));
  return *this;
}

OStream &OStream::operator<<(double D) {
  char Buf[64];
  int Len = std::snprintf(Buf, sizeof(Buf), "%g", D);
  write(Buf, static_cast<size_t>(Len));
  return *this;
}

void FileOStream::write(const char *Data, size_t Size) {
  std::fwrite(Data, 1, Size, File);
}

void StringOStream::write(const char *Data, size_t Size) {
  Buffer.append(Data, Size);
}

OStream &icores::outs() {
  static FileOStream Stream(stdout);
  return Stream;
}
