// Table rendering, numeric formatting, CSV, and string utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/csv.h"
#include "common/strings.h"
#include "common/table.h"

namespace ct = gpures::common;

TEST(AsciiTable, RendersAlignedGrid) {
  ct::AsciiTable t({"Name", "Count"});
  t.add_row({"alpha", "12"});
  t.add_row({"b", "3,456"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| Name  | Count |"), std::string::npos);
  EXPECT_NE(s.find("| alpha |    12 |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 3,456 |"), std::string::npos);
}

TEST(AsciiTable, SeparatorAndShortRows) {
  ct::AsciiTable t({"A", "B"});
  t.add_row({"1"});  // missing cell padded
  t.add_separator();
  t.add_row({"2", "3"});
  const std::string s = t.render();
  // 4 horizontal rules: top, under-header, requested separator, bottom.
  int rules = 0;
  std::size_t pos = 0;
  while (pos < s.size()) {
    if (s[pos] == '+') ++rules;
    pos = s.find('\n', pos);
    if (pos == std::string::npos) break;
    ++pos;
  }
  EXPECT_EQ(rules, 4);
  EXPECT_THROW(ct::AsciiTable({}), std::invalid_argument);
}

TEST(Format, Int) {
  EXPECT_EQ(ct::fmt_int(0), "0");
  EXPECT_EQ(ct::fmt_int(999), "999");
  EXPECT_EQ(ct::fmt_int(1000), "1,000");
  EXPECT_EQ(ct::fmt_int(38900), "38,900");
  EXPECT_EQ(ct::fmt_int(1445119), "1,445,119");
}

TEST(Format, FixedAndSig) {
  EXPECT_EQ(ct::fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(ct::fmt_sig(0.001234, 2), "0.0012");
  EXPECT_EQ(ct::fmt_sig(1234.5, 3), "1234");  // adaptive: no decimals, printf
                                              // rounds half-to-even
  EXPECT_EQ(ct::fmt_sig(0.0, 3), "0");
}

TEST(Format, Pct) { EXPECT_EQ(ct::fmt_pct(0.9048), "90.48"); }

TEST(Format, Mtbe) {
  EXPECT_EQ(ct::fmt_mtbe(std::numeric_limits<double>::infinity()), "-");
  EXPECT_EQ(ct::fmt_mtbe(0.17), "0.17");
  EXPECT_EQ(ct::fmt_mtbe(5.6), "5.6");
  EXPECT_EQ(ct::fmt_mtbe(32.4), "32");
  EXPECT_EQ(ct::fmt_mtbe(3347.0), "3,347");
}

TEST(Csv, EscapeRules) {
  EXPECT_EQ(ct::csv_escape("plain"), "plain");
  EXPECT_EQ(ct::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(ct::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WriterParserRoundTrip) {
  std::ostringstream os;
  ct::CsvWriter w(os);
  w.write_row({"a", "b,c", "d\"e", ""});
  const std::string line = os.str().substr(0, os.str().size() - 1);
  const auto cells = ct::parse_csv_line(line);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[1], "b,c");
  EXPECT_EQ(cells[2], "d\"e");
  EXPECT_EQ(cells[3], "");
}

TEST(Csv, ParseCrlf) {
  const auto cells = ct::parse_csv_line("x,y\r");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1], "y");
}

TEST(Strings, Split) {
  const auto parts = ct::split("a|b||c", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(ct::split("", ',').size(), 1u);
}

TEST(Strings, Trim) {
  EXPECT_EQ(ct::trim("  x \t\n"), "x");
  EXPECT_EQ(ct::trim(""), "");
  EXPECT_EQ(ct::trim("   "), "");
}

TEST(Strings, StartsWithContains) {
  EXPECT_TRUE(ct::starts_with("kernel: NVRM", "kernel:"));
  EXPECT_FALSE(ct::starts_with("ker", "kernel"));
  EXPECT_TRUE(ct::contains("abcdef", "cde"));
}

TEST(Strings, ParseNumbers) {
  EXPECT_EQ(ct::parse_ll("123"), 123);
  EXPECT_EQ(ct::parse_ll(" 45 "), 45);
  EXPECT_EQ(ct::parse_ll("-3"), -1);   // negatives rejected
  EXPECT_EQ(ct::parse_ll("12x"), -1);
  EXPECT_EQ(ct::parse_ll(""), -1);
  EXPECT_DOUBLE_EQ(ct::parse_double("2.5"), 2.5);
  EXPECT_TRUE(std::isnan(ct::parse_double("abc")));
}

TEST(Strings, JoinAndLower) {
  EXPECT_EQ(ct::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(ct::join({}, ","), "");
  EXPECT_EQ(ct::to_lower("GsP RPC"), "gsp rpc");
}
