//===- tests/support_test.cpp - Support-library unit tests ----------------===//

#include "support/CommandLine.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/MathUtil.h"
#include "support/OStream.h"
#include "support/Random.h"
#include "support/Table.h"

#include <gtest/gtest.h>

using namespace icores;

TEST(Format, FormatString) {
  EXPECT_EQ(formatString("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(formatString("%s", "plain"), "plain");
  EXPECT_EQ(formatString("empty"), "empty");
}

TEST(Format, FormatFixed) {
  EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(formatFixed(10.0, 0), "10");
  EXPECT_EQ(formatFixed(-0.5, 1), "-0.5");
}

TEST(Format, FormatPercent) {
  EXPECT_EQ(formatPercent(0.254, 1), "25.4");
  EXPECT_EQ(formatPercent(1.0, 0), "100");
  EXPECT_EQ(formatPercent(0.0, 2), "0.00");
}

TEST(Format, FormatBytes) {
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(1536), "1.50 KiB");
  EXPECT_EQ(formatBytes(3ull << 30), "3.00 GiB");
}

TEST(Format, FormatSeconds) {
  EXPECT_EQ(formatSeconds(9.0), "9.00 s");
  EXPECT_EQ(formatSeconds(0.0031), "3.10 ms");
  EXPECT_EQ(formatSeconds(2.5e-6), "2.50 us");
}

TEST(OStreamTest, StringSink) {
  std::string Buf;
  StringOStream OS(Buf);
  OS << "x=" << 42 << ", f=" << 1.5 << ", b=" << true << '\n';
  EXPECT_EQ(Buf, "x=42, f=1.5, b=true\n");
}

TEST(OStreamTest, IntegerWidths) {
  std::string Buf;
  StringOStream OS(Buf);
  OS << static_cast<int64_t>(-5) << ' ' << static_cast<uint64_t>(7) << ' '
     << 123u << ' ' << 9l;
  EXPECT_EQ(Buf, "-5 7 123 9");
}

TEST(TableTest, AlignedRendering) {
  TablePrinter Table({"name", "value"});
  Table.addRow({"a", "1"});
  Table.addRow({"longer", "22"});
  std::string Out = Table.toString();
  EXPECT_NE(Out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(Out.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(Table.numRows(), 2u);
  EXPECT_EQ(Table.numColumns(), 2u);
}

TEST(TableTest, IncrementalRows) {
  TablePrinter Table({"c1", "c2", "c3"});
  Table.startRow();
  Table.appendCell("x");
  Table.appendCell("y");
  Table.appendCell("z");
  EXPECT_EQ(Table.numRows(), 1u);
}

TEST(CommandLineTest, ParsesKeyValues) {
  CommandLine CL;
  const char *Argv[] = {"prog", "--steps=50", "--grid=big", "--flag",
                        "positional"};
  std::string Error;
  ASSERT_TRUE(CL.parse(5, Argv, Error)) << Error;
  EXPECT_EQ(CL.getInt("steps", 0), 50);
  EXPECT_EQ(CL.getString("grid", ""), "big");
  EXPECT_TRUE(CL.getBool("flag", false));
  EXPECT_EQ(CL.getInt("missing", 7), 7);
  ASSERT_EQ(CL.positionalArgs().size(), 1u);
  EXPECT_EQ(CL.positionalArgs()[0], "positional");
}

TEST(CommandLineTest, RejectsUnknownRegisteredOptions) {
  CommandLine CL;
  CL.registerOption("known", "a known option");
  const char *Argv[] = {"prog", "--unknown=1"};
  std::string Error;
  EXPECT_FALSE(CL.parse(2, Argv, Error));
  EXPECT_NE(Error.find("unknown"), std::string::npos);
}

TEST(CommandLineTest, BoolParsing) {
  CommandLine CL;
  const char *Argv[] = {"prog", "--a=false", "--b=0", "--c=yes"};
  std::string Error;
  ASSERT_TRUE(CL.parse(4, Argv, Error));
  EXPECT_FALSE(CL.getBool("a", true));
  EXPECT_FALSE(CL.getBool("b", true));
  EXPECT_TRUE(CL.getBool("c", false));
}

TEST(CommandLineTest, DoubleParsing) {
  CommandLine CL;
  const char *Argv[] = {"prog", "--x=2.5"};
  std::string Error;
  ASSERT_TRUE(CL.parse(2, Argv, Error));
  EXPECT_DOUBLE_EQ(CL.getDouble("x", 0.0), 2.5);
}

TEST(RandomTest, DeterministicStream) {
  SplitMix64 A(42);
  SplitMix64 B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, DoublesInUnitInterval) {
  SplitMix64 Rng(7);
  for (int I = 0; I != 1000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, RangeRespected) {
  SplitMix64 Rng(11);
  for (int I = 0; I != 1000; ++I) {
    double D = Rng.nextInRange(2.0, 5.0);
    EXPECT_GE(D, 2.0);
    EXPECT_LT(D, 5.0);
  }
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(ceilDiv(10, 3), 4);
  EXPECT_EQ(ceilDiv(9, 3), 3);
  EXPECT_EQ(ceilDiv(1, 5), 1);
  EXPECT_EQ(ceilDiv(0, 5), 0);
}

TEST(MathUtilTest, ChunkPartitionCoversExactly) {
  for (int Total : {1, 7, 16, 100})
    for (int Parts : {1, 2, 3, 7}) {
      if (Parts > Total)
        continue;
      int64_t Sum = 0;
      for (int P = 0; P != Parts; ++P) {
        EXPECT_EQ(chunkBegin(Total, Parts, P) + chunkSize(Total, Parts, P),
                  chunkBegin(Total, Parts, P + 1));
        Sum += chunkSize(Total, Parts, P);
      }
      EXPECT_EQ(Sum, Total);
    }
}

TEST(MathUtilTest, ChunkSizesNearlyEqual) {
  for (int P = 0; P != 5; ++P) {
    int64_t Size = chunkSize(17, 5, P);
    EXPECT_TRUE(Size == 3 || Size == 4);
  }
}
