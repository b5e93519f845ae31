//===- support/Error.cpp - Fatal-error and unreachable helpers -----------===//

#include "support/Error.h"

#include <cstdio>
#include <cstdlib>

void icores::reportFatalError(const char *Msg, const char *File, int Line) {
  std::fprintf(stderr, "icores fatal error: %s (%s:%d)\n", Msg, File, Line);
  std::abort();
}
