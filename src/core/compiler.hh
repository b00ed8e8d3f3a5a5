/**
 * @file
 * The LerGAN compiler (paper Sec. V: ZFDM and DataMapping).
 *
 * Lowers a GanModel under an AcceleratorConfig into mapped operations:
 * each layer-phase op gets its reshape analysis, replica vector (Table
 * III / Eq. 14), per-item cost, owning bank (the Fig. 13 B1..B6 roles)
 * and a tile range inside that bank. Normalized-space configurations are
 * fitted to their crossbar budget here.
 */

#ifndef LERGAN_CORE_COMPILER_HH
#define LERGAN_CORE_COMPILER_HH

#include <cstdint>
#include <vector>

#include "core/config.hh"
#include "faults/wear.hh"
#include "nn/training.hh"
#include "reram/allocator.hh"
#include "zfdr/cost.hh"

namespace lergan {

/** One layer-phase operation, fully placed and costed. */
struct MappedOp {
    LayerOp op;
    /** Per-item execution cost. */
    OpCost cost;
    /** Replica vector (ZFDR ops; all-ones otherwise). */
    ReplicaVector replicas;
    /** Whole-matrix duplication for dense ops (Eq. 14). */
    std::uint64_t denseRep = 1;
    /** True when this op runs zero-free reshaped. */
    bool usesZfdr = false;
    /**
     * True for W-CONV ops: the per-item gradient operand must be written
     * into the crossbars before the MMVs can run (a ReRAM write cost the
     * reshape scheme shrinks by dropping zeros).
     */
    bool perItemWrite = false;
    /** Owning bank, 0..5 (B1..B6 of Fig. 13). */
    int bank = 0;
    /** The actual crossbar ranges reserved for this op. */
    Allocation allocation;
    /** allocation.tiles(), resolved once: the op's tile group inside the
     *  bank, in first-use order (front() is where its transfers start). */
    std::vector<int> tiles;
};

/** All ops of one phase, in dataflow order. */
struct CompiledPhase {
    Phase phase = Phase::GFwd;
    std::vector<MappedOp> ops;
};

/**
 * Graceful-degradation accounting of a fault-injected compile: what the
 * fault map cost this mapping, re-derived against the healthy placement
 * of the same (model, config-without-faults) pair.
 */
struct FaultImpact {
    /** True when a fault map was materialized for this compile. */
    bool active = false;
    /** Tiles removed entirely (kill faults, wear-out, manual list). */
    std::uint64_t killedTiles = 0;
    /** Crossbars disabled on tiles that survived. */
    std::uint64_t deadCrossbars = 0;
    /** Crossbars of capacity lost machine-wide (killed + dead). */
    std::uint64_t capacityLostCrossbars = 0;
    /** capacityLostCrossbars over the machine's total crossbars. */
    double capacityLostFraction = 0.0;
    /**
     * Crossbars the healthy placement had put on now-unusable tiles —
     * the remap traffic the fault forces through the allocator.
     */
    std::uint64_t remappedCrossbars = 0;
    /** Every unusable tile, bank-major (killed + manual failedTiles). */
    std::vector<std::pair<int, int>> unusableTiles;
};

/** A fully compiled GAN. */
struct CompiledGan {
    /** The six phases, indexed in kAllPhases order. */
    std::vector<CompiledPhase> phases;
    /** CArray crossbars occupied across all banks. */
    std::uint64_t crossbarsUsed = 0;
    /** Stored weight elements (replicas included). */
    std::uint64_t weightElems = 0;
    /** Kernel-weight elements rewritten when updating the generator. */
    std::uint64_t updateElemsG = 0;
    /** Kernel-weight elements rewritten when updating the discriminator. */
    std::uint64_t updateElemsD = 0;
    /** Modeled compile time of the traditional (dense) flow, ms. */
    double compileMsTraditional = 0.0;
    /** Modeled compile time including ZFDR/ZFDM work, ms. */
    double compileMs = 0.0;
    /** Crossbars used per [bank][tile] by the final placement. */
    std::vector<std::vector<std::uint64_t>> bankUsage;
    /** Crossbars beyond physical capacity (time-shared if non-zero). */
    std::uint64_t oversubscribedCrossbars = 0;
    /** Degradation accounting of a fault-injected compile. */
    FaultImpact faultImpact;

    const CompiledPhase &phase(Phase phase) const;

    /** Print the per-tile CArray occupancy map. */
    void printMemoryMap(std::ostream &os) const;
};

/** Bank (Fig. 13 role) that hosts @p phase. */
int bankForPhase(Phase phase);

/** Compile @p model for @p config. */
CompiledGan compileGan(const GanModel &model,
                       const AcceleratorConfig &config);

/**
 * Per-tile weight-write densities of @p compiled — the wear model's
 * inputs (faults/wear.hh). Kernel copies rewrite once per update;
 * per-item-write ops program once per minibatch item; replicas multiply
 * both, which is how the ZFDR duplication degree feeds wear.
 */
WearInputs compiledWriteDensities(const CompiledGan &compiled,
                                  const AcceleratorConfig &config);

} // namespace lergan

#endif // LERGAN_CORE_COMPILER_HH
