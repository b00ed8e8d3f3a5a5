#include "core/compiler.hh"

#include <algorithm>
#include <array>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "faults/fault_model.hh"
#include "faults/wear.hh"

namespace lergan {

namespace {

/**
 * The concrete tile damage one compile must place around: tiles to
 * retire entirely and per-tile crossbar capacity reductions. A plain
 * compile uses the manual failedTiles list and nothing else; a
 * fault-injected compile derives the plan from a materialized FaultMap.
 */
struct FaultPlan {
    std::vector<std::pair<int, int>> killed;
    /** deadXbars[bank][tile] on surviving tiles (empty = none). */
    std::vector<std::vector<std::uint64_t>> deadXbars;
};

/**
 * Weight elements the ZFDR mapping of the layer behind @p op would
 * occupy — Eq. 14's s_zf. For a dense op, the companion sparse op of the
 * same layer (forward for T-CONV layers, error backprop for S-CONV
 * layers) defines how much CArray space the layer's ZFDR copies use.
 */
std::uint64_t
companionZfdrElems(const GanModel &model, const LayerOp &op,
                   ReplicaDegree degree, const ReplicaCostParams &params)
{
    const LayerSpec &layer = model.net(op.role)[op.layerIdx];
    Phase companion_phase;
    if (layer.kind == LayerKind::TConv)
        companion_phase = op.role == NetRole::Generator ? Phase::GFwd
                                                        : Phase::DFwd;
    else if (layer.kind == LayerKind::Conv)
        companion_phase = op.role == NetRole::Generator ? Phase::GBwdErr
                                                        : Phase::DBwdErr;
    else
        return layer.numWeights();

    for (const LayerOp &cand : opsForPhase(model, companion_phase)) {
        if (cand.role == op.role && cand.layerIdx == op.layerIdx &&
            cand.zfdrApplicable()) {
            const ReshapeAnalysis analysis = analyzeReshape(cand);
            const ReplicaVector reps =
                chooseReplicas(cand, analysis, degree, params);
            return analysis.corner.weightElems * reps.corner +
                   analysis.edge.weightElems * reps.edge +
                   analysis.inside.weightElems * reps.inside;
        }
    }
    return layer.numWeights();
}

/**
 * Naive intra-layer duplication for fully-normal configurations (the
 * PRIME/PipeLayer baseline): replicate the dense kernel until one item's
 * MMV waves hit a pipeline-friendly target; weight-gradient ops instead
 * balance the duplicated per-item crossbar writes against the waves
 * saved, exactly like the ZFDR replica chooser.
 */
std::uint64_t
naiveDup(const LayerOp &op, const CrossbarGeom &geom,
         const ReplicaCostParams &params)
{
    std::uint64_t positions = 1;
    switch (op.pattern) {
      case OpPattern::DenseFc:
      case OpPattern::OuterProductFc:
        return 1;
      default:
        positions = ipow(op.positions, op.spatialDims);
        break;
    }
    const std::uint64_t issues =
        positions * static_cast<std::uint64_t>(op.vectorsPerPosition);

    const bool per_item_write = op.phase == Phase::DBwdWeight ||
                                op.phase == Phase::GBwdWeight;
    if (per_item_write) {
        const std::uint64_t base_elems =
            std::max<std::uint64_t>(1, normalOpCost(op, 1, geom)
                                           .weightElems);
        std::uint64_t best_r = 1;
        double best_t = -1.0;
        for (std::uint64_t r = 1; r <= issues; r *= 2) {
            const double t =
                params.writeNsPerElem *
                    static_cast<double>(base_elems * r) +
                params.mmvTimeNs *
                    static_cast<double>((issues + r - 1) / r);
            if (best_t < 0 || t < best_t) {
                best_t = t;
                best_r = r;
            }
        }
        return best_r;
    }

    constexpr std::uint64_t wave_target = 256;
    constexpr std::uint64_t max_dup = 64;
    return std::clamp<std::uint64_t>(
        (issues + wave_target - 1) / wave_target, 1, max_dup);
}

/** Scale a replica vector down by @p factor (never below one copy). */
ReplicaVector
scaleReplicas(const ReplicaVector &reps, double factor)
{
    auto scale = [factor](std::uint64_t r) {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(static_cast<double>(r) * factor));
    };
    ReplicaVector scaled;
    scaled.corner = scale(reps.corner);
    scaled.edge = scale(reps.edge);
    scaled.inside = scale(reps.inside);
    return scaled;
}

/** Cost one op under the configuration, given its replica choice. */
OpCost
costOp(const MappedOp &mapped, const CrossbarGeom &geom)
{
    if (mapped.usesZfdr) {
        const ReshapeAnalysis analysis = analyzeReshape(mapped.op);
        return zfdrOpCost(mapped.op, analysis, mapped.replicas, geom);
    }
    return normalOpCost(mapped.op, mapped.denseRep, geom);
}

/** Modeled compile time (Sec. VI-E). */
void
modelCompileTime(const GanModel &model, CompiledGan &compiled)
{
    // Traditional flow: parse + per-weight mapping.
    const double weights = static_cast<double>(model.totalWeights());
    compiled.compileMsTraditional = 20.0e3 + weights * 5.0e-4;

    // ZFDR/ZFDM adds placeholder creation per reshaped matrix and
    // per-replica mapping work.
    double extra_ms = 0.0;
    for (const CompiledPhase &phase : compiled.phases) {
        for (const MappedOp &mapped : phase.ops) {
            if (!mapped.usesZfdr)
                continue;
            const ReshapeAnalysis analysis = analyzeReshape(mapped.op);
            extra_ms += 10.0 * static_cast<double>(
                                   analysis.distinctMatrices());
            extra_ms += static_cast<double>(mapped.cost.weightElems) *
                        3.0e-5;
        }
    }
    compiled.compileMs = compiled.compileMsTraditional + extra_ms;
}

} // namespace

const CompiledPhase &
CompiledGan::phase(Phase phase) const
{
    for (const CompiledPhase &p : phases)
        if (p.phase == phase)
            return p;
    LERGAN_PANIC("phase not compiled");
}

void
CompiledGan::printMemoryMap(std::ostream &os) const
{
    for (std::size_t bank = 0; bank < bankUsage.size(); ++bank) {
        std::uint64_t total = 0;
        os << "bank " << bank << " [";
        for (std::uint64_t used : bankUsage[bank]) {
            total += used;
            os << (used == 0 ? '.' : used < 2048 ? '-'
                                     : used < 6144 ? '+'
                                                   : '#');
        }
        os << "] " << total << " xbars\n";
    }
    if (oversubscribedCrossbars > 0) {
        os << "oversubscribed: " << oversubscribedCrossbars
           << " crossbars (time-shared)\n";
    }
}

int
bankForPhase(Phase phase)
{
    // Fig. 13: generator CU holds {B1=G.fwd, B2=G.bwd_w, B3=G.bwd_err};
    // discriminator CU holds {B4=D.fwd, B5=D.bwd_w, B6=D.bwd_err}.
    switch (phase) {
      case Phase::GFwd:       return 0;
      case Phase::GBwdWeight: return 1;
      case Phase::GBwdErr:    return 2;
      case Phase::DFwd:       return 3;
      case Phase::DBwdWeight: return 4;
      case Phase::DBwdErr:    return 5;
      default:                break;
    }
    LERGAN_PANIC("no bank hosts ", phaseName(phase));
}

namespace {

/** The placement pipeline, parameterized by the fault plan. */
CompiledGan
compileGanImpl(const GanModel &model, const AcceleratorConfig &config,
               const FaultPlan &plan)
{
    const CrossbarGeom geom;
    ReplicaCostParams replica_params;
    replica_params.mmvTimeNs = config.reram.mmvWaveNs;
    replica_params.hopTimeNs = config.reram.tileReadNs;
    replica_params.carrayElemsPerTile = config.reram.carrayWeightsPerTile();
    replica_params.writeNsPerElem = config.reram.weightWriteNsPerElem;

    CompiledGan compiled;
    for (Phase phase : kAllPhases) {
        CompiledPhase cphase;
        cphase.phase = phase;
        for (const LayerOp &op : opsForPhase(model, phase)) {
            MappedOp mapped;
            mapped.op = op;
            mapped.bank = bankForPhase(phase); // pair assigned at placement
            mapped.usesZfdr = config.reshape == ReshapeMode::Zfdr &&
                              op.zfdrApplicable();
            mapped.perItemWrite = (phase == Phase::DBwdWeight ||
                                   phase == Phase::GBwdWeight) &&
                                  op.pattern != OpPattern::DenseFc;

            if (mapped.usesZfdr) {
                const ReshapeAnalysis analysis = analyzeReshape(op);
                mapped.replicas =
                    config.duplicate
                        ? chooseReplicas(op, analysis,
                                         config.degreeFor(phase),
                                         replica_params)
                        : ReplicaVector{};
            } else if (config.duplicate) {
                if (config.reshape == ReshapeMode::Normal) {
                    // Fully-normal baseline: PipeLayer-style duplication.
                    mapped.denseRep =
                        naiveDup(op, geom, replica_params);
                } else {
                    // Dense op inside a ZFDR configuration: Eq. 14.
                    const std::uint64_t s_n =
                        model.net(op.role)[op.layerIdx].numWeights();
                    const std::uint64_t s_zf = companionZfdrElems(
                        model, op, config.degreeFor(phase),
                        replica_params);
                    mapped.denseRep =
                        denseReplicas(config.degreeFor(phase), s_zf, s_n);
                }
            }
            mapped.cost = costOp(mapped, geom);
            cphase.ops.push_back(std::move(mapped));
        }
        compiled.phases.push_back(std::move(cphase));
    }

    auto tally = [&] {
        compiled.crossbarsUsed = 0;
        compiled.weightElems = 0;
        for (const CompiledPhase &phase : compiled.phases) {
            for (const MappedOp &mapped : phase.ops) {
                compiled.crossbarsUsed += mapped.cost.crossbarsUsed;
                compiled.weightElems += mapped.cost.weightElems;
            }
        }
    };
    tally();

    // Fit the mapping to its crossbar budget: the machine's physical
    // capacity always applies (duplication shrinks before a bank is
    // oversubscribed 10x); an explicit normalized-space budget tightens
    // it further. Growing into a surplus only happens for explicit NS.
    const std::uint64_t machine_xbars =
        static_cast<std::uint64_t>(6) * config.cuPairs *
        config.reram.tilesPerBank * config.reram.crossbarsPerTile();
    std::uint64_t budget = machine_xbars;
    if (config.normalizedSpace && config.spaceBudgetCrossbars > 0)
        budget = std::min(budget, config.spaceBudgetCrossbars);
    // No single op may outgrow the bank that hosts it: scale its own
    // duplication first (the base, single-copy mapping may still
    // oversubscribe, which the allocator then reports as time-sharing).
    const std::uint64_t bank_xbars =
        static_cast<std::uint64_t>(config.reram.tilesPerBank) *
        config.reram.crossbarsPerTile();
    for (CompiledPhase &phase : compiled.phases) {
        for (MappedOp &mapped : phase.ops) {
            for (int round = 0;
                 round < 16 && mapped.cost.crossbarsUsed > bank_xbars;
                 ++round) {
                const double factor =
                    0.9 * static_cast<double>(bank_xbars) /
                    static_cast<double>(mapped.cost.crossbarsUsed);
                if (mapped.usesZfdr) {
                    const ReplicaVector scaled =
                        scaleReplicas(mapped.replicas, factor);
                    if (scaled.corner == mapped.replicas.corner &&
                        scaled.edge == mapped.replicas.edge &&
                        scaled.inside == mapped.replicas.inside) {
                        break; // already at single copies
                    }
                    mapped.replicas = scaled;
                } else {
                    const auto scaled = std::max<std::uint64_t>(
                        1, static_cast<std::uint64_t>(
                               static_cast<double>(mapped.denseRep) *
                               factor));
                    if (scaled == mapped.denseRep)
                        break;
                    mapped.denseRep = scaled;
                }
                mapped.cost = costOp(mapped, geom);
            }
        }
    }
    tally();
    {
        for (int round = 0;
             round < 32 && compiled.crossbarsUsed > budget;
             ++round) {
            const double factor =
                0.9 * static_cast<double>(budget) /
                static_cast<double>(compiled.crossbarsUsed);
            bool changed = false;
            for (CompiledPhase &phase : compiled.phases) {
                for (MappedOp &mapped : phase.ops) {
                    if (mapped.usesZfdr) {
                        const ReplicaVector scaled =
                            scaleReplicas(mapped.replicas, factor);
                        changed = changed ||
                                  scaled.edge != mapped.replicas.edge ||
                                  scaled.inside != mapped.replicas.inside;
                        mapped.replicas = scaled;
                    } else if (mapped.denseRep > 1) {
                        const auto scaled = std::max<std::uint64_t>(
                            1, static_cast<std::uint64_t>(
                                   static_cast<double>(mapped.denseRep) *
                                   factor));
                        changed = changed || scaled != mapped.denseRep;
                        mapped.denseRep = scaled;
                    }
                    mapped.cost = costOp(mapped, geom);
                }
            }
            tally();
            if (!changed)
                break;
        }
        if (config.normalizedSpace && config.spaceBudgetCrossbars > 0 &&
            compiled.crossbarsUsed < budget) {
            // Spend a surplus budget on uniform duplication (this is how
            // PRIME-NS consumes LerGAN's CArray space in Fig. 16/19).
            const std::uint64_t boost =
                budget /
                std::max<std::uint64_t>(1, compiled.crossbarsUsed);
            if (boost > 1) {
                for (CompiledPhase &phase : compiled.phases) {
                    for (MappedOp &mapped : phase.ops) {
                        if (mapped.usesZfdr) {
                            mapped.replicas.edge *= boost;
                            mapped.replicas.inside *= boost;
                        } else {
                            mapped.denseRep *= boost;
                        }
                        mapped.cost = costOp(mapped, geom);
                    }
                }
                tally();
            }
        }
    }

    // Tile placement: reserve actual crossbars through the allocator.
    // Ops spread over tiles in small chunks for wire bandwidth and MMV
    // parallelism well before capacity forces them to (a tile holds
    // thousands of crossbars); when a bank overflows, the remainder
    // time-shares crossbars and the shared tiles serialize in the
    // simulator, modeling limited space.
    CArrayAllocator allocator(6 * config.cuPairs,
                              config.reram.tilesPerBank,
                              config.reram.crossbarsPerTile());
    for (const auto &[bank, tile] : plan.killed)
        allocator.markFailed(bank, tile);
    for (std::size_t bank = 0; bank < plan.deadXbars.size(); ++bank) {
        for (std::size_t tile = 0; tile < plan.deadXbars[bank].size();
             ++tile) {
            if (plan.deadXbars[bank][tile] > 0 &&
                !allocator.isFailed(static_cast<int>(bank),
                                    static_cast<int>(tile))) {
                allocator.reduceCapacity(static_cast<int>(bank),
                                         static_cast<int>(tile),
                                         plan.deadXbars[bank][tile]);
            }
        }
    }

    // Contiguous layer blocks per CU pair, balanced by crossbar demand
    // (volumetric GANs concentrate their crossbars in a few layers, so a
    // plain layer-count split would overflow one pair and idle another).
    std::map<std::pair<int, std::size_t>, std::uint64_t> layer_xbars;
    for (const CompiledPhase &phase : compiled.phases) {
        for (const MappedOp &mapped : phase.ops) {
            layer_xbars[{static_cast<int>(mapped.op.role),
                         mapped.op.layerIdx}] +=
                mapped.cost.crossbarsUsed;
        }
    }
    std::map<std::pair<int, std::size_t>, int> pair_of;
    for (const NetRole role : {NetRole::Generator,
                               NetRole::Discriminator}) {
        const std::size_t layers = model.net(role).size();
        std::uint64_t total = 0;
        for (std::size_t l = 0; l < layers; ++l)
            total += layer_xbars[{static_cast<int>(role), l}];
        std::uint64_t prefix = 0;
        for (std::size_t l = 0; l < layers; ++l) {
            const int pair = std::min<int>(
                config.cuPairs - 1,
                static_cast<int>(prefix * config.cuPairs /
                                 std::max<std::uint64_t>(1, total)));
            pair_of[{static_cast<int>(role), l}] = pair;
            prefix += layer_xbars[{static_cast<int>(role), l}];
        }
    }

    for (CompiledPhase &phase : compiled.phases) {
        for (MappedOp &mapped : phase.ops) {
            mapped.bank =
                6 * pair_of[{static_cast<int>(mapped.op.role),
                             mapped.op.layerIdx}] +
                bankForPhase(phase.phase);
            const std::uint64_t xbars =
                std::max<std::uint64_t>(1, mapped.cost.crossbarsUsed);
            const std::uint64_t chunk = std::max<std::uint64_t>(
                8, (xbars + config.reram.tilesPerBank - 1) /
                       config.reram.tilesPerBank);
            mapped.allocation = allocator.allocate(mapped.bank, xbars,
                                                   chunk, mapped.op.label);
            mapped.tiles = mapped.allocation.tiles();
            LERGAN_ASSERT(!mapped.tiles.empty(),
                          "placement produced no tiles");
        }
    }
    compiled.bankUsage.assign(6 * config.cuPairs, {});
    for (int bank = 0; bank < 6 * config.cuPairs; ++bank) {
        for (int tile = 0; tile < config.reram.tilesPerBank; ++tile)
            compiled.bankUsage[bank].push_back(
                allocator.usedInTile(bank, tile));
    }
    compiled.oversubscribedCrossbars = allocator.totalOversubscribed();

    // Update volumes: every stored copy of kernel weights is rewritten
    // when its network updates. W-CONV ops hold per-item gradients, not
    // kernels, so they are excluded here (their writes are per item).
    for (const CompiledPhase &phase : compiled.phases) {
        const bool is_weight_phase = phase.phase == Phase::DBwdWeight ||
                                     phase.phase == Phase::GBwdWeight;
        for (const MappedOp &mapped : phase.ops) {
            if (is_weight_phase)
                continue;
            const bool gen_weights =
                phase.phase == Phase::GFwd || phase.phase == Phase::GBwdErr;
            if (gen_weights)
                compiled.updateElemsG += mapped.cost.weightElems;
            else
                compiled.updateElemsD += mapped.cost.weightElems;
        }
    }

    modelCompileTime(model, compiled);
    return compiled;
}

} // namespace

WearInputs
compiledWriteDensities(const CompiledGan &compiled,
                       const AcceleratorConfig &config)
{
    WearInputs inputs;
    inputs.cellsPerTile = config.reram.carrayWeightsPerTile();
    inputs.writesPerIteration.assign(
        static_cast<std::size_t>(6) * config.cuPairs,
        std::vector<double>(config.reram.tilesPerBank, 0.0));
    for (const CompiledPhase &phase : compiled.phases) {
        for (const MappedOp &mapped : phase.ops) {
            const double writes =
                static_cast<double>(mapped.cost.weightElems) *
                (mapped.perItemWrite
                     ? static_cast<double>(config.batchSize)
                     : 1.0);
            const std::uint64_t reserved = mapped.allocation.reserved();
            if (writes <= 0.0 || reserved == 0)
                continue;
            for (const CrossbarRange &range : mapped.allocation.ranges) {
                if (range.count == 0)
                    continue;
                inputs.writesPerIteration[range.bank][range.tile] +=
                    writes * static_cast<double>(range.count) /
                    static_cast<double>(reserved);
            }
        }
    }
    return inputs;
}

CompiledGan
compileGan(const GanModel &model, const AcceleratorConfig &config)
{
    if (!config.faults.any()) {
        // Zero-fault path: bit-exact with the fault-unaware compiler.
        // Manual failedTiles keep their legacy route-around behavior.
        FaultPlan plan;
        plan.killed = config.failedTiles;
        return compileGanImpl(model, config, plan);
    }

    config.faults.checkUsable();

    // The healthy placement of the same pair anchors the degradation
    // accounting (remap traffic) and the wear model's write densities.
    AcceleratorConfig healthy_config = config;
    healthy_config.faults = FaultConfig{};
    healthy_config.failedTiles.clear();
    const CompiledGan healthy =
        compileGanImpl(model, healthy_config, FaultPlan{});

    const FaultGeometry geometry =
        faultGeometry(config.cuPairs, config.reram);
    FaultMap map = buildFaultMap(geometry, config.faults);
    if (config.faults.priorIterations > 0.0) {
        applyWear(map,
                  computeWearMap(compiledWriteDensities(healthy, config),
                                      config.faults.priorIterations,
                                      config.faults.cellEndurance));
    }
    for (const auto &[bank, tile] : config.failedTiles) {
        LERGAN_ASSERT(bank >= 0 && bank < geometry.banks && tile >= 0 &&
                          tile < geometry.tilesPerBank,
                      "failedTiles entry out of range");
        map.tiles[bank][tile].killed = true;
    }

    // Graceful failure, not a crash: a bank with no live tiles cannot
    // host its phase at all, so the point fails as a user-visible error
    // (sweeps record it as a failed SweepResult and move on).
    for (int bank = 0; bank < geometry.banks; ++bank) {
        if (map.killedInBank(bank) == geometry.tilesPerBank) {
            std::ostringstream oss;
            oss << "fault map kills every tile of bank " << bank
                << " (seed " << config.faults.seed
                << "): the mapping cannot degrade gracefully";
            throw std::invalid_argument(oss.str());
        }
    }

    FaultPlan plan;
    plan.killed = map.killedTiles();
    plan.deadXbars.assign(
        geometry.banks,
        std::vector<std::uint64_t>(geometry.tilesPerBank, 0));
    for (int bank = 0; bank < geometry.banks; ++bank) {
        for (int tile = 0; tile < geometry.tilesPerBank; ++tile) {
            if (!map.tiles[bank][tile].killed)
                plan.deadXbars[bank][tile] =
                    std::min(map.tiles[bank][tile].deadCrossbars,
                             geometry.crossbarsPerTile);
        }
    }

    CompiledGan compiled = compileGanImpl(model, config, plan);

    FaultImpact &impact = compiled.faultImpact;
    impact.active = true;
    impact.killedTiles = plan.killed.size();
    impact.unusableTiles = plan.killed;
    for (int bank = 0; bank < geometry.banks; ++bank) {
        for (int tile = 0; tile < geometry.tilesPerBank; ++tile) {
            const std::uint64_t dead = plan.deadXbars[bank][tile];
            impact.deadCrossbars += dead;
            const std::uint64_t healthy_used =
                healthy.bankUsage[bank][tile];
            if (map.tiles[bank][tile].killed) {
                // Everything the healthy placement stored here moves.
                impact.remappedCrossbars += healthy_used;
            } else if (healthy_used + dead > geometry.crossbarsPerTile) {
                // The reduced tile no longer fits its healthy share.
                impact.remappedCrossbars +=
                    healthy_used + dead - geometry.crossbarsPerTile;
            }
        }
    }
    impact.capacityLostCrossbars =
        impact.killedTiles * geometry.crossbarsPerTile +
        impact.deadCrossbars;
    impact.capacityLostFraction =
        static_cast<double>(impact.capacityLostCrossbars) /
        static_cast<double>(map.totalCrossbars());
    return compiled;
}

} // namespace lergan
