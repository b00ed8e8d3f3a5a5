/**
 * @file
 * ReRAM PIM hardware parameters.
 *
 * Values marked [Table IV] come directly from the paper's hardware
 * configuration table; the remaining per-component crossbar energies are
 * ISAAC-style calibration constants (the paper builds its CArrays from
 * ISAAC crossbars). The evaluation compares configurations that all share
 * these constants, so results are a function of the architecture, not of
 * the absolute calibration. Table IV values that no model reads (bank
 * write latency and read/write energy, H-tree energy, tile write
 * latency, I/O frequency) have no field; DESIGN.md §5 lists them.
 */

#ifndef LERGAN_RERAM_PARAMS_HH
#define LERGAN_RERAM_PARAMS_HH

#include <cstdint>

#include "common/types.hh"

namespace lergan {

/** Full device/bank/tile parameter set. */
struct ReRamParams {
    /** @name Bank level [Table IV] */
    ///@{
    double bankReadNs = 32.8;
    std::uint64_t bankBytes = 2ull << 30;  ///< 2 GB per bank
    int tilesPerBank = 16;
    ///@}

    /** @name H-tree interconnect [Table IV] */
    ///@{
    double htreeNs = 29.9;
    ///@}

    /** @name Tile level [Table IV] */
    ///@{
    double tileReadNs = 2.9;
    double tileReadPj = 330.0;  ///< Table IV wire-level: 3.3, scaled
    double tileWritePj = 3480.0; ///< Table IV wire-level: 34.8, scaled
    std::uint64_t tileBytes = 128ull << 20;   ///< 128 MB per tile
    std::uint64_t carrayBytes = 64ull << 20;  ///< half the tile computes
    std::uint64_t barrayBytes = 2ull << 20;   ///< 1/64 of the tile buffers
    std::uint64_t sarrayBytes = 62ull << 20;  ///< the rest stores
    ///@}

    /** Bytes per operand (16-bit precision, as in PipeLayer). */
    int bytesPerElem = 2;

    /**
     * @name Crossbar MMV component energies
     * Per 128x128-crossbar activation (one 16-bit bit-serial MMV wave
     * through one crossbar: 16 input phases x 128 column conversions).
     * Ratios follow the paper's Fig. 24 tile breakdown (ADC 45.14%,
     * cell switching 40.16%, remainder split across DAC, sample&hold and
     * drivers/decoders); the absolute scale is calibrated to the
     * machine-level power the paper's own cross-platform results imply
     * (47.2x speedup over a ~23 W FPGA at 1.04x its energy puts the
     * full 16 GB PIM at kilowatt-class power while computing).
     */
    ///@{
    double adcPjPerXbar = 18500.0;
    double cellPjPerXbar = 11800.0;
    double dacPjPerXbar = 2500.0;
    double shPjPerXbar = 1400.0;
    double driverPjPerXbar = 2100.0;
    ///@}

    /** t_m: latency of one MMV wave (16-bit bit-serial input). */
    double mmvWaveNs = 50.0;

    /** @name Data movement energies
     * Effective per-byte figures including the 1.6 GHz I/O drivers and
     * routing-node logic, at the same machine-level calibration as the
     * crossbar energies (Table IV's raw-wire 386 pJ/H-tree access is the
     * wire component only). */
    ///@{
    double hopPjPerByte = 350.0;   ///< neighbor tile-to-tile wire
    /**
     * Shared-bus bytes round-trip through the memory channel and host
     * (Sec. I: off-chip accesses cost ~2 orders of magnitude more than
     * an FP op) — this is the long path the 3D bypass wires avoid.
     */
    double busPjPerByte = 28000.0;
    double bufferPjPerByte = 90.0; ///< BArray access
    ///@}

    /** @name Weight update (CArray writes)
     * Writes are row-parallel (a 128-cell wordline programs at once) and
     * tens of crossbars program concurrently per tile, so the amortized
     * per-element time is far below a single-cell write. Energy follows
     * Table IV's 34.8 pJ per 16-byte tile write (~4.4 pJ per 16-bit
     * element). */
    ///@{
    double weightWriteNsPerElem = 0.01;
    double weightWritePjPerElem = 900.0;
    ///@}

    /** @name Switch / controller (3D connection) */
    ///@{
    double switchReconfigNs = 4.0;   ///< flipping one node's switch state
    double switchReconfigPj = 250.0;
    double controllerPjPerTask = 150.0; ///< FSM bookkeeping per macro-op
    ///@}

    /** Link width in bytes transferred per I/O cycle on a tile wire. */
    double linkBytesPerNs = 3.2; ///< 1.6 GHz x 16-bit links

    /** Derived: weight elements one tile's CArray holds. */
    std::uint64_t
    carrayWeightsPerTile() const
    {
        return carrayBytes / bytesPerElem;
    }

    /** Derived: crossbars per tile (128x128 cells, 4-bit each). */
    std::uint64_t
    crossbarsPerTile() const
    {
        const std::uint64_t cells_per_xbar = 128ull * 128ull;
        const std::uint64_t bytes_per_xbar = cells_per_xbar * 4 / 8;
        return carrayBytes / bytes_per_xbar;
    }
};

} // namespace lergan

#endif // LERGAN_RERAM_PARAMS_HH
