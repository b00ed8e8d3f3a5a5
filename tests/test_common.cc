/**
 * @file
 * Unit tests for the common utility layer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/strings.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace lergan {
namespace {

TEST(Stats, AddAccumulates)
{
    StatSet stats;
    stats.add("a.x", 1.0);
    stats.add("a.x", 2.5);
    EXPECT_DOUBLE_EQ(stats.get("a.x"), 3.5);
    EXPECT_DOUBLE_EQ(stats.get("missing"), 0.0);
    EXPECT_FALSE(stats.has("missing"));
    EXPECT_TRUE(stats.has("a.x"));
}

TEST(Stats, SetOverwrites)
{
    StatSet stats;
    stats.add("k", 5);
    stats.set("k", 2);
    EXPECT_DOUBLE_EQ(stats.get("k"), 2.0);
}

TEST(Stats, MergeSums)
{
    StatSet a, b;
    a.add("x", 1);
    a.add("y", 2);
    b.add("y", 3);
    b.add("z", 4);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 1);
    EXPECT_DOUBLE_EQ(a.get("y"), 5);
    EXPECT_DOUBLE_EQ(a.get("z"), 4);
}

TEST(Stats, ScaleMultipliesEverything)
{
    StatSet stats;
    stats.add("x", 2);
    stats.add("y", 3);
    stats.scale(10);
    EXPECT_DOUBLE_EQ(stats.get("x"), 20);
    EXPECT_DOUBLE_EQ(stats.get("y"), 30);
}

TEST(Stats, SumPrefixSelectsSubtree)
{
    StatSet stats;
    stats.add("energy.compute.adc", 1);
    stats.add("energy.compute.dac", 2);
    stats.add("energy.comm", 10);
    stats.add("energy2", 100);
    EXPECT_DOUBLE_EQ(stats.sumPrefix("energy.compute."), 3);
    EXPECT_DOUBLE_EQ(stats.sumPrefix("energy."), 13);
    EXPECT_DOUBLE_EQ(stats.sumPrefix(""), 113);
}

TEST(Stats, PrintFiltersByPrefix)
{
    StatSet stats;
    stats.add("a.one", 1);
    stats.add("b.two", 2);
    std::ostringstream oss;
    stats.print(oss, "a.");
    EXPECT_NE(oss.str().find("a.one"), std::string::npos);
    EXPECT_EQ(oss.str().find("b.two"), std::string::npos);
}

TEST(Strings, Split)
{
    const auto fields = split("a-b--c", '-');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(fields[3], "c");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y \t"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("hello", "he"));
    EXPECT_FALSE(startsWith("hello", "hello!"));
    EXPECT_TRUE(endsWith("hello", "lo"));
    EXPECT_FALSE(endsWith("hello", "hell"));
}

TEST(Strings, ParseInt)
{
    EXPECT_EQ(parseInt("1024", "test"), 1024);
    EXPECT_EQ(parseInt("0", "test"), 0);
}

TEST(StringsDeath, ParseIntRejectsGarbage)
{
    EXPECT_EXIT(parseInt("12x", "test"), testing::ExitedWithCode(1), "");
    EXPECT_EXIT(parseInt("", "test"), testing::ExitedWithCode(1), "");
}

TEST(LoggingDeath, AssertFires)
{
    EXPECT_DEATH(LERGAN_ASSERT(1 == 2, "boom"), "assertion failed");
}

TEST(Types, NsToPsRoundsToTheNearestPicosecond)
{
    EXPECT_EQ(nsToPs(0.0), 0u);
    EXPECT_EQ(nsToPs(2.9), 2900u);
    EXPECT_EQ(nsToPs(0.0004), 0u);
    EXPECT_EQ(nsToPs(0.0006), 1u);
}

TEST(TypesDeath, NsToPsRejectsValuesOutsideThePicosecondRange)
{
    // Each would be an undefined double-to-integer cast.
    EXPECT_DEATH(nsToPs(std::nan("")), "outside the picosecond range");
    EXPECT_DEATH(nsToPs(-50.0), "outside the picosecond range");
    EXPECT_DEATH(nsToPs(1e30), "outside the picosecond range");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Table, RendersAlignedRows)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", TextTable::num(1.5)});
    table.addRow({"b", "2"});
    std::ostringstream oss;
    table.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    // Header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TableDeath, RowWidthMismatch)
{
    TextTable table({"one"});
    EXPECT_DEATH(table.addRow({"a", "b"}), "cells");
}

} // namespace
} // namespace lergan
