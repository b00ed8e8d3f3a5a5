/**
 * @file
 * The build ledger: every quantity a training iteration accrues while its
 * task DAG is built, as a fixed enum backed by one name table. A quantity
 * is reported exactly when it was accrued at least once, even by zero.
 *
 * A builder that repeats a block of work (one minibatch item, stamped
 * m - 1 times) records the block's adds on a tape and replays the tape
 * once per copy. It never multiplies a block's total by the copy count:
 * floating-point sums depend on their order, and the exported results
 * print 17 significant digits, so only the same adds in the same order
 * give the same bits.
 */

#ifndef LERGAN_RERAM_LEDGER_HH
#define LERGAN_RERAM_LEDGER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hh"

namespace lergan {

/** One build-time quantity. */
enum class Quantity : std::uint8_t {
    // Statistics: the Fig. 24 compute components, the other tile, update
    // and control terms, the Fig. 23 wires and the traffic totals.
    ComputeAdc, ComputeCell, ComputeDac, ComputeSh, ComputeDriver,
    CrossbarActivations, Buffer, Storage, Update, WeightWrites,
    UpdateElems, Control, CommHTree, CommAdded, CommBypass, CommBus,
    TrafficBytes, TrafficByteHops,
    // Metric counters: flits per wire kind, then the controller FSM.
    FlitsHTree, FlitsHorizontal, FlitsVertical, FlitsBypass, FlitsBus,
    CtrlTransitions, CtrlModeSwitches, CtrlEnterIdle, CtrlEnterTrainDisc,
    CtrlEnterUpdateDisc, CtrlEnterTrainGen, CtrlEnterUpdateGen,
};

constexpr std::size_t kNumQuantities =
    static_cast<std::size_t>(Quantity::CtrlEnterUpdateGen) + 1;
/** Quantities below this index are statistics, the rest counters. */
constexpr std::size_t kFirstCounter =
    static_cast<std::size_t>(Quantity::FlitsHTree);

/** The one place each build-time key is spelled, in Quantity order. */
inline constexpr std::array<const char *, kNumQuantities> kQuantityNames = {
    "energy.compute.adc", "energy.compute.cell", "energy.compute.dac",
    "energy.compute.sh", "energy.compute.driver",
    "count.crossbar_activations", "energy.buffer", "energy.storage",
    "energy.update", "count.weight_writes", "count.update_elems",
    "energy.control", "energy.comm.htree", "energy.comm.added",
    "energy.comm.bypass", "energy.comm.bus", "traffic.bytes",
    "traffic.byte_hops",
    "ic.htree.wire.flits", "ic.added.h.flits", "ic.added.v.flits",
    "ic.bypass.flits", "ic.bus.flits",
    "ctrl.transitions", "ctrl.mode_switches", "ctrl.enter.idle",
    "ctrl.enter.train_disc", "ctrl.enter.update_disc",
    "ctrl.enter.train_gen", "ctrl.enter.update_gen",
};
static_assert(kQuantityNames.back() != nullptr,
              "every Quantity needs a name");

/** The statistic or metric name of @p q ("energy.buffer"). */
constexpr const char *
quantityName(Quantity q)
{
    return kQuantityNames[static_cast<std::size_t>(q)];
}

/** Dense accumulator of the build-time quantities. */
class BuildLedger
{
  public:
    /** One add() as a tape holds it. */
    struct Entry {
        Quantity q;
        double delta;
    };
    /** A recorded run of adds, in order. */
    using Tape = std::vector<Entry>;

    /** Accrue @p delta (pJ, bytes or events; counts stay exact) to @p q. */
    void
    add(Quantity q, double delta)
    {
        accrue(q, delta);
        if (tape_)
            tape_->push_back({q, delta});
    }

    /** Also append every later add() to @p tape, until called again
     *  with null. The ledger keeps the pointer: detach before the tape
     *  goes away or the ledger is copied. */
    void record(Tape *tape) { tape_ = tape; }

    /** Make @p tape's adds again, in order: bit for bit what making
     *  them again with add() would accrue. */
    void
    replay(const Tape &tape)
    {
        for (const Entry &entry : tape)
            accrue(entry.q, entry.delta);
    }

    /** True once @p q was accrued, even by zero. */
    bool has(Quantity q) const { return seen_[index(q)]; }
    double value(Quantity q) const { return values_[index(q)]; }

    /** Add every accrued statistic to @p stats under its name. */
    void
    foldInto(StatSet &stats) const
    {
        for (std::size_t i = 0; i < kFirstCounter; ++i)
            if (seen_[i])
                stats.add(kQuantityNames[i], values_[i]);
    }

  private:
    static std::size_t index(Quantity q) { return static_cast<std::size_t>(q); }

    void
    accrue(Quantity q, double delta)
    {
        values_[index(q)] += delta;
        seen_[index(q)] = true;
    }

    std::array<double, kNumQuantities> values_{};
    std::array<bool, kNumQuantities> seen_{};
    Tape *tape_ = nullptr;
};

} // namespace lergan

#endif // LERGAN_RERAM_LEDGER_HH
