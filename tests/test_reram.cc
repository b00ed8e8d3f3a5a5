/**
 * @file
 * Tests for the ReRAM device parameters, the tile energy model and the
 * build ledger it charges.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include "reram/ledger.hh"
#include "reram/params.hh"
#include "reram/tile.hh"

namespace lergan {
namespace {

TEST(Params, TableIvDerivedQuantities)
{
    const ReRamParams params;
    // 2 GB bank / 128 MB tile -> 16 tiles (Table IV).
    EXPECT_EQ(params.bankBytes / params.tileBytes,
              static_cast<std::uint64_t>(params.tilesPerBank));
    // CArray + BArray + SArray fill the tile.
    EXPECT_EQ(params.carrayBytes + params.barrayBytes + params.sarrayBytes,
              params.tileBytes);
    // 64 MB of 4-bit cells in 128x128 crossbars.
    EXPECT_EQ(params.crossbarsPerTile(), 8192u);
    EXPECT_EQ(params.carrayWeightsPerTile(), 32u << 20);
}

TEST(Params, Fig24ComponentShares)
{
    // The ADC share of a pure MMV must sit near the paper's 45.14%; the
    // cell-switching bucket only reaches its 40.16% once weight-update
    // writes are folded in (done at the bench level), so here it just
    // has to be the clear runner-up among the compute components.
    const ReRamParams params;
    const double total = params.adcPjPerXbar + params.cellPjPerXbar +
                         params.dacPjPerXbar + params.shPjPerXbar +
                         params.driverPjPerXbar;
    EXPECT_NEAR(params.adcPjPerXbar / total, 0.4514, 0.08);
    EXPECT_GT(params.cellPjPerXbar, params.dacPjPerXbar);
    EXPECT_GT(params.cellPjPerXbar, params.shPjPerXbar);
    EXPECT_GT(params.cellPjPerXbar, params.driverPjPerXbar);
    EXPECT_LT(params.cellPjPerXbar, params.adcPjPerXbar);
}

TEST(Tile, MmvTimeScalesWithWaves)
{
    const TileModel tile{ReRamParams{}};
    EXPECT_EQ(tile.mmvTime(0), 0u);
    EXPECT_EQ(tile.mmvTime(10), 10 * tile.mmvTime(1));
}

TEST(Tile, MmvEnergySplitsAcrossComponents)
{
    const TileModel tile{ReRamParams{}};
    BuildLedger ledger;
    tile.chargeMmv(ledger, 100);
    StatSet stats;
    ledger.foldInto(stats);
    const double total = stats.sumPrefix("energy.compute.");
    EXPECT_DOUBLE_EQ(total, 100 * tile.perCrossbarEnergy());
    EXPECT_GT(ledger.value(Quantity::ComputeAdc), 0.0);
    EXPECT_GT(ledger.value(Quantity::ComputeCell), 0.0);
    EXPECT_GT(ledger.value(Quantity::ComputeDac), 0.0);
    EXPECT_GT(ledger.value(Quantity::ComputeSh), 0.0);
    EXPECT_GT(ledger.value(Quantity::ComputeDriver), 0.0);
    EXPECT_DOUBLE_EQ(stats.get("count.crossbar_activations"), 100.0);
}

TEST(Tile, BufferAndStorageCharges)
{
    const TileModel tile{ReRamParams{}};
    BuildLedger ledger;
    tile.chargeBuffer(ledger, 1000);
    EXPECT_DOUBLE_EQ(ledger.value(Quantity::Buffer),
                     1000 * ReRamParams{}.bufferPjPerByte);
    tile.chargeStorage(ledger, 160, 320);
    // 10 reads + 20 writes of 16-byte rows.
    const ReRamParams params;
    StatSet stats;
    ledger.foldInto(stats);
    EXPECT_DOUBLE_EQ(stats.get("energy.storage"),
                     10 * params.tileReadPj + 20 * params.tileWritePj);
}

TEST(Tile, WeightWriteTimeAndEnergy)
{
    const ReRamParams params;
    const TileModel tile{params};
    BuildLedger ledger;
    const PicoSeconds t = tile.chargeWeightWrite(ledger, 1'000'000);
    EXPECT_EQ(t, nsToPs(params.weightWriteNsPerElem * 1e6));
    StatSet stats;
    ledger.foldInto(stats);
    EXPECT_DOUBLE_EQ(stats.get("energy.update"),
                     params.weightWritePjPerElem * 1e6);
    EXPECT_DOUBLE_EQ(stats.get("count.weight_writes"), 1e6);
}

TEST(Tile, EnergyAccumulatesAcrossCharges)
{
    const TileModel tile{ReRamParams{}};
    BuildLedger ledger;
    tile.chargeMmv(ledger, 1);
    const double one = ledger.value(Quantity::ComputeAdc);
    tile.chargeMmv(ledger, 1);
    EXPECT_DOUBLE_EQ(ledger.value(Quantity::ComputeAdc), 2 * one);
}

TEST(Ledger, FoldsExactlyTheAccruedStatistics)
{
    BuildLedger ledger;
    ledger.add(Quantity::CommAdded, 0.0);
    ledger.add(Quantity::Buffer, 1.5);
    ledger.add(Quantity::Buffer, 2.25);
    ledger.add(Quantity::FlitsBus, 7);
    StatSet stats;
    ledger.foldInto(stats);
    // Accrued with zero still appears; never accrued does not; counters
    // belong to the metrics replay, not the report.
    EXPECT_TRUE(stats.has("energy.comm.added"));
    EXPECT_EQ(stats.get("energy.comm.added"), 0.0);
    EXPECT_EQ(stats.get("energy.buffer"), 3.75);
    EXPECT_FALSE(stats.has("energy.comm.bypass"));
    EXPECT_FALSE(stats.has("ic.bus.flits"));
    EXPECT_EQ(stats.size(), 2u);
    EXPECT_TRUE(ledger.has(Quantity::FlitsBus));
    EXPECT_EQ(ledger.value(Quantity::FlitsBus), 7.0);
    EXPECT_FALSE(ledger.has(Quantity::FlitsHTree));
}

TEST(BuildLedger, ReplayedTapeEqualsDirectAdds)
{
    // Adds whose sum depends on their order: a tape replayed k times
    // must give the bits of the same adds made k + 1 times, which
    // multiplying one copy's total does not (0.3 x 4 is 1.2, the
    // repeated adds give 0.3).
    const auto addItem = [](BuildLedger &ledger) {
        for (const double delta : {0.1, 1e16, -1e16, 0.3})
            ledger.add(Quantity::Buffer, delta);
        ledger.add(Quantity::TrafficBytes, 0.1);
        ledger.add(Quantity::CommAdded, 0.0);
    };
    constexpr int kItems = 4;
    BuildLedger direct;
    for (int k = 0; k < kItems; ++k)
        addItem(direct);

    BuildLedger replayed;
    BuildLedger::Tape tape;
    replayed.record(&tape);
    addItem(replayed);
    replayed.record(nullptr);
    EXPECT_EQ(tape.size(), 6u);
    for (int k = 1; k < kItems; ++k)
        replayed.replay(tape);
    EXPECT_EQ(tape.size(), 6u); // replay records nothing

    for (std::size_t i = 0; i < kNumQuantities; ++i) {
        const auto q = static_cast<Quantity>(i);
        EXPECT_EQ(replayed.has(q), direct.has(q)) << quantityName(q);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(replayed.value(q)),
                  std::bit_cast<std::uint64_t>(direct.value(q)))
            << quantityName(q);
    }
    EXPECT_TRUE(replayed.has(Quantity::CommAdded));
    EXPECT_NE(direct.value(Quantity::Buffer), 0.3 * kItems);
}

TEST(Ledger, NameTableIsUniqueAndPartitioned)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < kNumQuantities; ++i) {
        const std::string name = quantityName(static_cast<Quantity>(i));
        EXPECT_TRUE(names.insert(name).second) << name;
        const bool counter = name.rfind("ic.", 0) == 0 ||
                             name.rfind("ctrl.", 0) == 0;
        EXPECT_EQ(counter, i >= kFirstCounter) << name;
    }
}

} // namespace
} // namespace lergan
