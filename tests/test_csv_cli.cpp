// CSV writer escaping/teeing and the CLI flag parser.

#include <gtest/gtest.h>

#include <sstream>

#include "support/cli.hpp"
#include "support/csv.hpp"

namespace {

using fairbfl::support::CliArgs;
using fairbfl::support::CsvWriter;

TEST(Csv, HeaderAndRows) {
    std::ostringstream out;
    CsvWriter csv(out);
    csv.header({"round", "delay", "name"});
    csv.row().col(std::int64_t{1}).col(2.5).col("FAIR").end();
    EXPECT_EQ(out.str(), "round,delay,name\n1,2.5,FAIR\n");
}

TEST(Csv, EscapesSeparatorsAndQuotes) {
    std::ostringstream out;
    CsvWriter csv(out);
    csv.row().col("a,b").col("he said \"hi\"").end();
    EXPECT_EQ(out.str(), "\"a,b\",\"he said \"\"hi\"\"\"\n");
}

TEST(Csv, RowEmitsOnDestruction) {
    std::ostringstream out;
    CsvWriter csv(out);
    { csv.row().col(std::size_t{7}); }
    EXPECT_EQ(out.str(), "7\n");
}

TEST(Cli, ParsesTypedValues) {
    const char* argv[] = {"prog", "--rounds=50", "--eta=0.05",
                          "--name=test", "--paper"};
    CliArgs args(5, argv);
    EXPECT_EQ(args.get_int("rounds", 100), 50);
    EXPECT_DOUBLE_EQ(args.get_double("eta", 0.01), 0.05);
    EXPECT_EQ(args.get_string("name", "x"), "test");
    EXPECT_TRUE(args.get_flag("paper"));
    EXPECT_TRUE(args.finish("prog"));
}

TEST(Cli, FallbacksWhenAbsent) {
    const char* argv[] = {"prog"};
    CliArgs args(1, argv);
    EXPECT_EQ(args.get_int("rounds", 100), 100);
    EXPECT_DOUBLE_EQ(args.get_double("eta", 0.01), 0.01);
    EXPECT_FALSE(args.get_flag("paper"));
    EXPECT_TRUE(args.finish("prog"));
}

TEST(Cli, BooleanSpellings) {
    const char* argv[] = {"prog", "--a=false", "--b=0", "--c=true", "--d=1"};
    CliArgs args(5, argv);
    EXPECT_FALSE(args.get_flag("a"));
    EXPECT_FALSE(args.get_flag("b"));
    EXPECT_TRUE(args.get_flag("c"));
    EXPECT_TRUE(args.get_flag("d"));
}

TEST(Cli, RejectsUnknownFlags) {
    const char* argv[] = {"prog", "--rounds=5", "--bogus=1"};
    CliArgs args(3, argv);
    EXPECT_EQ(args.get_int("rounds", 1), 5);
    EXPECT_FALSE(args.finish("prog"));  // --bogus never consumed
}

TEST(Cli, HelpFlagDetected) {
    const char* argv[] = {"prog", "--help"};
    CliArgs args(2, argv);
    EXPECT_TRUE(args.help_requested());
}

TEST(Cli, MalformedIntIsFlaggedNotZero) {
    const char* argv[] = {"prog", "--rounds=abc"};
    CliArgs args(2, argv);
    EXPECT_EQ(args.get_int("rounds", 100), 100);  // fallback, not 0
    EXPECT_FALSE(args.finish("prog"));
}

TEST(Cli, TrailingGarbageIntIsFlagged) {
    const char* argv[] = {"prog", "--rounds=12x"};
    CliArgs args(2, argv);
    EXPECT_EQ(args.get_int("rounds", 100), 100);
    EXPECT_FALSE(args.finish("prog"));
}

TEST(Cli, BareNumericFlagIsFlagged) {
    // A bare `--rounds` stores "true"; reading it as a number used to
    // yield 0 silently.
    const char* argv[] = {"prog", "--rounds"};
    CliArgs args(2, argv);
    EXPECT_EQ(args.get_int("rounds", 100), 100);
    EXPECT_FALSE(args.finish("prog"));
}

TEST(Cli, OutOfRangeIntIsFlaggedNotClamped) {
    // strtoll clamps to INT64_MAX/MIN and reports ERANGE; a seed of
    // 99999999999999999999 must not silently run as 9223372036854775807.
    for (const char* value :
         {"--seed=99999999999999999999", "--seed=-99999999999999999999"}) {
        const char* argv[] = {"prog", value};
        CliArgs args(2, argv);
        EXPECT_EQ(args.get_int("seed", 42), 42) << value;
        EXPECT_FALSE(args.finish("prog")) << value;
    }
    // The extremes themselves are in range.
    const char* argv[] = {"prog", "--a=9223372036854775807",
                          "--b=-9223372036854775808"};
    CliArgs args(3, argv);
    EXPECT_EQ(args.get_int("a", 0), INT64_MAX);
    EXPECT_EQ(args.get_int("b", 0), INT64_MIN);
    EXPECT_TRUE(args.finish("prog"));
}

TEST(Cli, MalformedDoubleIsFlagged) {
    const char* argv[] = {"prog", "--eta=0.05oops"};
    CliArgs args(2, argv);
    EXPECT_DOUBLE_EQ(args.get_double("eta", 0.01), 0.01);
    EXPECT_FALSE(args.finish("prog"));
}

TEST(Cli, NonFiniteDoubleIsFlagged) {
    for (const char* value : {"--eta=nan", "--eta=inf", "--eta=-inf"}) {
        const char* argv[] = {"prog", value};
        CliArgs args(2, argv);
        EXPECT_DOUBLE_EQ(args.get_double("eta", 0.01), 0.01) << value;
        EXPECT_FALSE(args.finish("prog")) << value;
    }
    // Finite but beyond float range (an attack magnitude): still a number.
    const char* argv[] = {"prog", "--magnitude=1e39"};
    CliArgs args(2, argv);
    EXPECT_DOUBLE_EQ(args.get_double("magnitude", 1.0), 1e39);
    EXPECT_TRUE(args.finish("prog"));
}

TEST(Cli, WellFormedNumbersStillPass) {
    const char* argv[] = {"prog", "--rounds=-3", "--eta=1e-2"};
    CliArgs args(3, argv);
    EXPECT_EQ(args.get_int("rounds", 0), -3);
    EXPECT_DOUBLE_EQ(args.get_double("eta", 0.0), 0.01);
    EXPECT_TRUE(args.finish("prog"));
}

}  // namespace
