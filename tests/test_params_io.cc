/**
 * @file
 * Tests for the ReRamParams text loader/saver.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "reram/params_io.hh"

namespace lergan {
namespace {

TEST(ParamsIo, LoadsOverrides)
{
    std::istringstream in("mmv_wave_ns = 25\n"
                          "# a comment\n"
                          "adc_pj_per_xbar = 100.5  # trailing comment\n"
                          "\n"
                          "bus_pj_per_byte=12\n");
    ReRamParams params;
    loadParams(in, params);
    EXPECT_DOUBLE_EQ(params.mmvWaveNs, 25.0);
    EXPECT_DOUBLE_EQ(params.adcPjPerXbar, 100.5);
    EXPECT_DOUBLE_EQ(params.busPjPerByte, 12.0);
    // Untouched keys keep their defaults.
    EXPECT_DOUBLE_EQ(params.cellPjPerXbar, ReRamParams{}.cellPjPerXbar);
}

TEST(ParamsIo, RoundTrips)
{
    ReRamParams original;
    original.mmvWaveNs = 33.25;
    original.hopPjPerByte = 7.5;
    std::ostringstream out;
    saveParams(out, original);

    std::istringstream in(out.str());
    ReRamParams loaded;
    loaded.mmvWaveNs = -1; // poison to prove it is overwritten
    loadParams(in, loaded);
    EXPECT_DOUBLE_EQ(loaded.mmvWaveNs, 33.25);
    EXPECT_DOUBLE_EQ(loaded.hopPjPerByte, 7.5);
    EXPECT_DOUBLE_EQ(loaded.adcPjPerXbar, original.adcPjPerXbar);
}

TEST(ParamsIoDeath, UnknownKeyIsFatal)
{
    // The Table IV values no model reads have no key (DESIGN.md §5).
    for (const char *key :
         {"no_such_knob", "bank_write_ns", "bank_read_pj", "bank_write_pj",
          "htree_pj", "tile_write_ns", "io_freq_ghz"}) {
        std::istringstream in(std::string(key) + " = 1\n");
        ReRamParams params;
        EXPECT_EXIT(loadParams(in, params), testing::ExitedWithCode(1),
                    "unknown key")
            << key;
    }
}

TEST(ParamsIoDeath, MalformedNumberIsFatal)
{
    std::istringstream in("mmv_wave_ns = fast\n");
    ReRamParams params;
    EXPECT_EXIT(loadParams(in, params), testing::ExitedWithCode(1), "");
}

TEST(ParamsIoDeath, MissingEqualsIsFatal)
{
    std::istringstream in("mmv_wave_ns 25\n");
    ReRamParams params;
    EXPECT_EXIT(loadParams(in, params), testing::ExitedWithCode(1), "");
}

TEST(ParamsIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(loadParamsFile("/nonexistent/params.txt"),
                testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace lergan
