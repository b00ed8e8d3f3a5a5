#include "core/accelerator.hh"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <mutex>
#include <span>
#include <unordered_map>

#include "common/logging.hh"
#include "core/validate.hh"
#include "sim/observe.hh"
#include "sim/task_graph.hh"
#include "sim/utilization.hh"
#include "workloads/zoo.hh"

namespace lergan {

namespace {

/**
 * The one live copy of the name list equal to @p names. Machines built
 * from configs that differ only in mapping knobs name their resources
 * alike (the 40 Fig. 19 templates hold two distinct lists), so the
 * templates share their lists instead of holding a copy each.
 */
std::shared_ptr<const std::vector<std::string>>
sharedNames(const std::vector<std::string> &names)
{
    static std::mutex mutex;
    static std::vector<std::weak_ptr<const std::vector<std::string>>> lists;
    const std::lock_guard lock(mutex);
    std::erase_if(lists, [](const auto &list) { return list.expired(); });
    for (const auto &list : lists) {
        // Templates drop their lists outside the mutex, so a list seen
        // alive by erase_if may have died since.
        if (auto live = list.lock(); live && *live == names)
            return live;
    }
    auto list = std::make_shared<const std::vector<std::string>>(names);
    lists.push_back(list);
    return list;
}

/** Host-CPU time per weight for the SGD update arithmetic (Sec. V:
 *  "some calculations in CPU"; vectorized on a Xeon E5520-class host). */
constexpr double kCpuNsPerWeight = 0.05;

/**
 * Builds the task DAG of one training iteration against a Machine.
 *
 * All energies are accrued at construction time (they do not depend on
 * the schedule); the graph execution provides timing and contention.
 * Every task gets its kind, phase and names as it is added; each op's
 * name id and compute resources are resolved once, up front, and each
 * route's resources are interned the first time a transfer takes it.
 */
class IterationBuilder
{
  public:
    IterationBuilder(const GanModel &model, const AcceleratorConfig &config,
                     const CompiledGan &compiled, Machine &machine,
                     MemoryController &controller, const TileModel &tile,
                     std::size_t cpu_res)
        : model_(model), config_(config), compiled_(compiled),
          machine_(machine), controller_(controller), tile_(tile),
          cmode_(config.connection == Connection::ThreeD),
          cpuRes_(graph.internResources(std::span(&cpu_res, 1)))
    {
        // Every flit counter exists after a telemetry-attached run, even
        // one whose routes never use that wire kind.
        for (const WireQuantities &wire : kWireQuantities)
            ledger.add(wire.flits, 0);
        for (std::size_t p = 0; p < compiled.phases.size(); ++p) {
            const CompiledPhase &phase = compiled.phases[p];
            LERGAN_ASSERT(phase.phase == kAllPhases[p],
                          "compiled phases out of order");
            for (const MappedOp &op : phase.ops) {
                // Walk the tiles the allocator actually reserved, not a
                // run of consecutive tiles: when faults retire tiles the
                // allocation skips them, and work must never be
                // scheduled on a killed tile's compute resource (the
                // audit pins this).
                std::vector<std::size_t> tiles;
                for (int tile : op.tiles)
                    tiles.push_back(machine_.tileComputeRes(op.bank, tile));
                ops_[p].push_back({graph.intern(op.op.label),
                                   graph.internResources(tiles)});
            }
        }
    }

    IterationTemplate out; ///< what build() produces
    TaskGraph &graph = out.graph;
    BuildLedger &ledger = out.ledger;

    /** Build the full iteration: discriminator step then generator step. */
    void
    build()
    {
        TaskId barrier = advanceController(kNoTask); // -> TrainDisc
        barrier = discriminatorStep(barrier);
        barrier = advanceController(barrier);        // -> UpdateDisc
        barrier = updateNetwork(barrier, NetRole::Discriminator);
        barrier = advanceController(barrier);        // -> TrainGen
        barrier = generatorStep(barrier);
        barrier = advanceController(barrier);        // -> UpdateGen
        updateNetwork(barrier, NetRole::Generator);
    }

  private:
    const GanModel &model_;
    const AcceleratorConfig &config_;
    const CompiledGan &compiled_;
    Machine &machine_;
    MemoryController &controller_;
    const TileModel &tile_;
    bool cmode_;
    /** The host CPU, as a resource set. */
    ResourceSetId cpuRes_;

    /** An op's name id and the compute resources of its tile group. */
    struct OpInfo {
        std::uint32_t name;
        ResourceSetId resources;
    };
    /** Per compiled phase (kAllPhases order), per op. */
    std::array<std::vector<OpInfo>, 6> ops_;
    /** Resource set of each route a transfer took (the machine's
     *  route cache keeps every Route at one address). */
    std::unordered_map<const Route *, ResourceSetId> routeSets_;
    /** The ledger adds of the item addItems() last built. */
    BuildLedger::Tape tape_;

    /** Name id of the per-item a^0 barrier, interned once since it is
     *  added for every item. */
    const std::uint32_t a0_ = graph.intern("a0");

    const ReRamParams &params() const { return config_.reram; }
    int batch() const { return config_.batchSize; }

    /** The OpInfo of @p op, an op of the compiled model. */
    const OpInfo &
    info(const MappedOp &op) const
    {
        const auto p = static_cast<std::size_t>(op.op.phase);
        return ops_[p][&op - compiled_.phases[p].ops.data()];
    }

    /** Add @p task, depending on every real task of @p deps. */
    TaskId
    addTask(const Task &task, std::initializer_list<TaskId> deps)
    {
        const TaskId id = graph.addTask(task);
        for (TaskId dep : deps)
            if (dep != kNoTask)
                graph.addDep(id, dep);
        return id;
    }

    /** One per-item compute task for @p op. */
    TaskId
    computeTask(const MappedOp &op, std::initializer_list<TaskId> deps)
    {
        PicoSeconds duration = tile_.mmvTime(op.cost.waves);
        if (op.perItemWrite) {
            // The per-item gradient operand must be programmed into the
            // crossbars first; parallel across the op's tiles.
            duration += nsToPs(params().weightWriteNsPerElem *
                               static_cast<double>(op.cost.weightElems) /
                               static_cast<double>(op.tiles.size()));
            tile_.chargeWeightWrite(ledger, op.cost.weightElems);
        }
        tile_.chargeMmv(ledger, op.cost.crossbarActivations);
        tile_.chargeBuffer(ledger,
                           (op.cost.inputElems + op.cost.outputElems) *
                               params().bytesPerElem);
        if (op.cost.inputElems > op.op.inputData) {
            // Normal reshape materializes the inserted/padding zeros in
            // the consumer's SArray before feeding them (Sec. III-A's
            // storage burden).
            tile_.chargeStorage(ledger, 0,
                                (op.cost.inputElems - op.op.inputData) *
                                    params().bytesPerElem);
        }
        ledger.add(Quantity::Control, params().controllerPjPerTask);

        const OpInfo &self = info(op);
        return addTask({TaskKind::Compute, op.op.phase, self.name, 0,
                        self.resources, duration},
                       deps);
    }

    /**
     * Move @p bytes from @p src's tiles to @p dst's tiles.
     *
     * Multi-tile ops stream over parallel leaf wires, so the serialized
     * bytes shrink by the smaller tile-group width; the representative
     * route still charges full energy and models path contention.
     */
    TaskId
    transferTask(const MappedOp &src, const MappedOp &dst, Bytes bytes,
                 TaskId dep, bool charge_storage = false)
    {
        const Route &route =
            machine_.routeTiles(src.bank, src.tiles.front(), dst.bank,
                                dst.tiles.front(), cmode_);
        machine_.topo().chargeTransfer(route, bytes, ledger);
        if (charge_storage)
            tile_.chargeStorage(ledger, bytes, bytes);
        // Parallel per-tile wires (leaf, horizontal, vertical) stripe
        // the stream across the tile groups; a route through a shared
        // single link (bus, port-to-port bypass) cannot.
        const Bytes spread = route.sharedLink
                                 ? 1
                                 : std::min(src.tiles.size(), dst.tiles.size());
        const Bytes wire_bytes = (bytes + spread - 1) / spread;
        auto [set, fresh] = routeSets_.try_emplace(&route);
        if (fresh)
            set->second = graph.internResources(route.resources);
        return addTask({TaskKind::Transfer, Phase::Transfers,
                        info(src).name, info(dst).name, set->second,
                        route.transferTime(wire_bytes)},
                       {dep});
    }

    /** Stream one real training item in from main memory via the bus. */
    TaskId
    loadItemTask(const MappedOp &dst, Bytes bytes, TaskId dep)
    {
        ledger.add(Quantity::CommBus,
                   params().busPjPerByte * static_cast<double>(bytes));
        ledger.add(Quantity::FlitsBus, static_cast<double>(flitsFor(bytes)));
        tile_.chargeStorage(ledger, 0, bytes);
        const PicoSeconds duration = nsToPs(
            params().bankReadNs +
            static_cast<double>(bytes) / (2 * params().linkBytesPerNs));
        return addTask(
            {TaskKind::Load, Phase::Transfers, info(dst).name, 0, {}, duration},
            {dep});
    }

    /** Controller state advance: mode switches become one task. */
    TaskId
    advanceController(TaskId dep)
    {
        const auto switches = controller_.advance();
        ledger.add(Quantity::CtrlTransitions, 1);
        ledger.add(ctrlEnterQuantity(controller_.state()), 1);
        ledger.add(Quantity::CtrlModeSwitches,
                   static_cast<double>(switches.size()));
        ledger.add(Quantity::Control,
                   controller_.switchEnergy() *
                       static_cast<double>(switches.size()));
        const PicoSeconds duration =
            switches.empty() ? 0 : controller_.switchTime();
        return addTask({TaskKind::Control, Phase::Other,
                        graph.intern(ctrlStateName(controller_.state())),
                        0, {}, duration},
                       {dep});
    }

    /** Zero-duration barrier named @p name joining @p deps. */
    TaskId
    barrierTask(std::uint32_t name, const std::vector<TaskId> &deps)
    {
        const TaskId id =
            graph.addTask({TaskKind::Marker, Phase::Other, name, 0, {}, 0});
        for (TaskId dep : deps)
            if (dep != kNoTask)
                graph.addDep(id, dep);
        return id;
    }

    /**
     * Run a forward phase chain for one item.
     *
     * @param entry dependency of the first op (previous segment, or the
     *        transfer landing this item's input).
     * @param out_tasks filled with the per-layer compute tasks.
     * @return the last compute task.
     */
    /**
     * Bytes that actually cross wires into @p op: the useful data only.
     * Under normal reshaping the inserted/padding zeros are materialized
     * locally at the consumer (written to its SArray and streamed from
     * its BArray — charged as storage/buffer energy), not shipped.
     */
    Bytes
    usefulInputBytes(const MappedOp &op) const
    {
        return op.op.inputData * params().bytesPerElem;
    }

    TaskId
    forwardChain(const CompiledPhase &phase, TaskId entry,
                 std::vector<TaskId> *out_tasks)
    {
        TaskId prev = entry;
        const MappedOp *prev_op = nullptr;
        for (const MappedOp &op : phase.ops) {
            TaskId dep = prev;
            if (prev_op) {
                dep = transferTask(*prev_op, op, usefulInputBytes(op),
                                   prev);
            }
            prev = computeTask(op, {dep});
            if (out_tasks)
                out_tasks->push_back(prev);
            prev_op = &op;
        }
        return prev;
    }

    /** The error-chain task producing nabla-z^l, and its op. */
    struct GradSource {
        TaskId task = kNoTask;
        const MappedOp *op = nullptr;
    };

    /**
     * Error-backprop chain for one item: each op consumes the previous
     * op's gradient plus the cached forward value of its own layer.
     *
     * @param fwd_phase the forward phase whose caches feed this chain.
     * @param fwd_tasks per-layer forward compute tasks of this item.
     * @param grad_by_layer filled with the producer of nabla-z^l,
     *        indexed by layer l (for the weight-gradient chain).
     */
    TaskId
    errorChain(const CompiledPhase &err_phase,
               const CompiledPhase &fwd_phase,
               const std::vector<TaskId> &fwd_tasks, TaskId entry,
               std::vector<GradSource> *grad_by_layer)
    {
        if (grad_by_layer)
            grad_by_layer->assign(fwd_phase.ops.size(), {});
        TaskId prev = entry;
        const MappedOp *prev_op = nullptr;
        for (const MappedOp &op : err_phase.ops) {
            // The cached z^l of this layer, written by the forward pass.
            const std::size_t layer = op.op.layerIdx;
            const MappedOp &fwd_op = fwd_phase.ops[layer];
            const TaskId cache = transferTask(
                fwd_op, op,
                fwd_op.op.outputData * params().bytesPerElem,
                fwd_tasks[layer], /*charge_storage=*/true);

            TaskId grad_dep = prev;
            if (prev_op) {
                grad_dep = transferTask(*prev_op, op,
                                        usefulInputBytes(op), prev);
            }
            prev = computeTask(op, {grad_dep, cache});
            if (grad_by_layer) {
                // This op produced nabla-z^(layer-1) for the next op; the
                // gradient *entering* it is nabla-z^layer.
                (*grad_by_layer)[layer] = {prev, &op};
            }
            prev_op = &op;
        }
        return prev;
    }

    /**
     * Weight-gradient chain for one item. Layer l needs nabla-z^l (from
     * the error chain, or the loss for the last layer) and the cached
     * activation a^(l-1) from the forward pass.
     */
    std::vector<TaskId>
    weightChain(const CompiledPhase &w_phase,
                const CompiledPhase &fwd_phase,
                const std::vector<TaskId> &fwd_tasks,
                const std::vector<GradSource> &grad_by_layer,
                const MappedOp &loss_op, TaskId loss_task,
                TaskId input_task)
    {
        const std::size_t num_layers = fwd_phase.ops.size();
        std::vector<TaskId> tasks;
        for (const MappedOp &op : w_phase.ops) {
            const std::size_t layer = op.op.layerIdx;
            const LayerSpec &spec = model_.net(op.op.role)[layer];

            // nabla-z^l: produced by the error op of layer l+1, i.e. the
            // error chain's entry for this layer; the last layer takes
            // the loss gradient from wherever it landed (the forward
            // output for D training, the bypass arrival for G training).
            GradSource grad{loss_task, &loss_op};
            if (layer + 1 < num_layers) {
                grad = grad_by_layer[layer + 1];
                LERGAN_ASSERT(grad.op, "missing gradient producer for layer ",
                              layer);
            }

            // The wires carry the dense useful operands: the cached
            // activation a^(l-1) and the gradient nabla-z^l.
            const Bytes a_bytes = spec.inVolume() * params().bytesPerElem;
            const Bytes g_bytes = spec.outVolume() * params().bytesPerElem;

            const TaskId grad_xfer =
                transferTask(*grad.op, op, g_bytes, grad.task);

            TaskId act_xfer;
            if (layer == 0) {
                // a^0 is the network input, streamed alongside the item.
                act_xfer = barrierTask(a0_, {input_task});
            } else {
                const MappedOp &fwd_prev = fwd_phase.ops[layer - 1];
                act_xfer = transferTask(fwd_prev, op, a_bytes,
                                        fwd_tasks[layer - 1],
                                        /*charge_storage=*/true);
            }
            tasks.push_back(computeTask(op, {grad_xfer, act_xfer}));
        }
        return tasks;
    }

    /**
     * Add the batch()'s items of one kind: build the first with
     * @p build_item, which returns its weight-gradient tasks, then
     * append the other batch() - 1 as copies of its tasks
     * (TaskGraph::repeat) and of its ledger adds (a tape replayed once
     * per copy). An item's tasks, durations, resources and ledger adds
     * never depend on its index, and it depends on nothing outside
     * itself but its step's entry, so the copies are exactly what
     * building each item again would add. Appends every item's weight
     * tasks, item by item, to @p weight_tasks.
     */
    template <typename BuildItem>
    void
    addItems(std::vector<TaskId> &weight_tasks, BuildItem &&build_item)
    {
        const TaskGraph::Mark from = graph.mark();
        tape_.clear();
        ledger.record(&tape_);
        const std::vector<TaskId> item = build_item();
        ledger.record(nullptr);
        const TaskGraph::Mark to = graph.mark();
        const auto copies = static_cast<std::size_t>(batch() - 1);
        graph.repeat(from, to, copies);
        for (std::size_t k = 0; k < copies; ++k)
            ledger.replay(tape_);
        // Copy k starts k blocks after the item.
        const std::size_t len = to.tasks - from.tasks;
        for (std::size_t k = 0; k <= copies; ++k)
            for (const TaskId task : item)
                weight_tasks.push_back(task + k * len);
    }

    /** The Fig. 13a discriminator-training step. */
    TaskId
    discriminatorStep(TaskId entry)
    {
        const CompiledPhase &g_fwd = compiled_.phase(Phase::GFwd);
        const CompiledPhase &d_fwd = compiled_.phase(Phase::DFwd);
        const CompiledPhase &d_err = compiled_.phase(Phase::DBwdErr);
        const CompiledPhase &d_w = compiled_.phase(Phase::DBwdWeight);

        std::vector<TaskId> all_weight_tasks;
        std::vector<GradSource> grads;
        // Item source: m generated fakes, then m real samples.
        for (const bool fake : {true, false}) {
            addItems(all_weight_tasks, [&] {
                TaskId input_task;
                if (fake) {
                    const TaskId g_out =
                        forwardChain(g_fwd, entry, nullptr);
                    input_task = transferTask(
                        g_fwd.ops.back(), d_fwd.ops.front(),
                        usefulInputBytes(d_fwd.ops.front()), g_out);
                } else {
                    input_task = loadItemTask(
                        d_fwd.ops.front(),
                        usefulInputBytes(d_fwd.ops.front()), entry);
                }

                std::vector<TaskId> fwd_tasks;
                const TaskId d_out =
                    forwardChain(d_fwd, input_task, &fwd_tasks);

                errorChain(d_err, d_fwd, fwd_tasks, d_out, &grads);

                return weightChain(d_w, d_fwd, fwd_tasks, grads,
                                   d_fwd.ops.back(), d_out, input_task);
            });
        }
        return barrierTask(graph.intern("D.step.done"), all_weight_tasks);
    }

    /** The Fig. 13b generator-training step. */
    TaskId
    generatorStep(TaskId entry)
    {
        const CompiledPhase &g_fwd = compiled_.phase(Phase::GFwd);
        const CompiledPhase &d_fwd = compiled_.phase(Phase::DFwd);
        const CompiledPhase &d_err = compiled_.phase(Phase::DBwdErr);
        const CompiledPhase &g_err = compiled_.phase(Phase::GBwdErr);
        const CompiledPhase &g_w = compiled_.phase(Phase::GBwdWeight);

        std::vector<TaskId> all_weight_tasks;
        std::vector<GradSource> g_grads;
        addItems(all_weight_tasks, [&] {
            std::vector<TaskId> g_fwd_tasks;
            const TaskId g_out =
                forwardChain(g_fwd, entry, &g_fwd_tasks);
            const TaskId into_d = transferTask(
                g_fwd.ops.back(), d_fwd.ops.front(),
                usefulInputBytes(d_fwd.ops.front()), g_out);

            std::vector<TaskId> d_fwd_tasks;
            const TaskId d_out =
                forwardChain(d_fwd, into_d, &d_fwd_tasks);

            // Errors flow back through the (frozen) discriminator...
            const TaskId d_err_out = errorChain(d_err, d_fwd, d_fwd_tasks,
                                                d_out, nullptr);

            // ...cross back to the generator CU over the bypass...
            const TaskId across = transferTask(
                d_err.ops.back(), g_err.ops.front(),
                usefulInputBytes(g_err.ops.front()), d_err_out);

            // ...and continue through the generator.
            errorChain(g_err, g_fwd, g_fwd_tasks, across, &g_grads);

            return weightChain(g_w, g_fwd, g_fwd_tasks, g_grads,
                               g_err.ops.front(), across,
                               /*input_task=*/entry);
        });
        return barrierTask(graph.intern("G.step.done"), all_weight_tasks);
    }

    /** Smode read-out, host update arithmetic and kernel rewrites. */
    TaskId
    updateNetwork(TaskId entry, NetRole role)
    {
        const bool disc = role == NetRole::Discriminator;
        const std::uint64_t update_elems =
            disc ? compiled_.updateElemsD : compiled_.updateElemsG;
        std::uint64_t base_weights = 0;
        for (const LayerSpec &layer : model_.net(role))
            base_weights += layer.numWeights();

        // Gradient read-out to the host over the bus.
        const Bytes grad_bytes = base_weights * params().bytesPerElem;
        ledger.add(Quantity::CommBus,
                   params().busPjPerByte *
                       static_cast<double>(grad_bytes));
        tile_.chargeStorage(ledger, grad_bytes, 0);
        const TaskId read = addTask(
            {TaskKind::Marker, Phase::Updates,
             graph.intern(disc ? "D.grad.readout" : "G.grad.readout"),
             0, cpuRes_,
             nsToPs(params().bankReadNs +
                    static_cast<double>(grad_bytes) /
                        (2 * params().linkBytesPerNs))},
            {entry});

        // Host-side SGD arithmetic.
        const TaskId cpu = addTask(
            {TaskKind::Marker, Phase::Updates,
             graph.intern(disc ? "D.update.cpu" : "G.update.cpu"), 0,
             cpuRes_,
             nsToPs(kCpuNsPerWeight * static_cast<double>(base_weights))},
            {read});

        // Rewrite every stored copy of the network's kernels.
        std::vector<TaskId> writes;
        const Phase phases[2] = {disc ? Phase::DFwd : Phase::GFwd,
                                 disc ? Phase::DBwdErr : Phase::GBwdErr};
        for (Phase phase : phases) {
            for (const MappedOp &op : compiled_.phase(phase).ops) {
                const PicoSeconds duration = nsToPs(
                    params().weightWriteNsPerElem *
                    static_cast<double>(op.cost.weightElems) /
                    static_cast<double>(op.tiles.size()));
                tile_.chargeWeightWrite(ledger, op.cost.weightElems);
                const OpInfo &self = info(op);
                writes.push_back(addTask({TaskKind::Update,
                                          Phase::Updates, self.name,
                                          0, self.resources, duration},
                                         {cpu}));
            }
        }
        ledger.add(Quantity::UpdateElems,
                   static_cast<double>(update_elems));
        return barrierTask(graph.intern(disc ? "D.updated" : "G.updated"),
                           writes);
    }
};

} // namespace

LerGanAccelerator::LerGanAccelerator(
    const GanModel &model, AcceleratorConfig config,
    std::shared_ptr<const CompiledGan> compiled)
    : LerGanAccelerator(model, std::move(config), std::move(compiled),
                        Prevalidated{})
{
    const ValidationResult validation =
        validateMapping(model_, config_, *compiled_);
    LERGAN_ASSERT(validation.ok(), "invalid mapping for ", model_.name,
                  " on ", config_.label(), ": ",
                  validation.violations.empty()
                      ? ""
                      : validation.violations.front());
}

LerGanAccelerator::LerGanAccelerator(
    const GanModel &model, AcceleratorConfig config,
    std::shared_ptr<const CompiledGan> compiled, Prevalidated)
    : model_(model), config_(std::move(config)),
      compiled_(compiled ? std::move(compiled)
                         : std::make_shared<const CompiledGan>(
                               compileGan(model_, config_))),
      machine_(config_), controller_(config_.reram, config_.cuPairs),
      tileModel_(config_.reram),
      cpuRes_(machine_.pool().create("host.cpu", ResourceCategory::Cpu))
{
}

std::vector<std::string>
LerGanAccelerator::resourceNames() const
{
    return static_cast<const Machine &>(machine_).pool().names();
}

std::shared_ptr<const IterationTemplate>
LerGanAccelerator::makeIterationTemplate()
{
    controller_.reset();

    IterationBuilder builder(model_, config_, *compiled_, machine_,
                             controller_, tileModel_, cpuRes_);
    builder.build();
    builder.graph.setResourceCategories(machine_.pool().categories());
    builder.out.resourceNames = sharedNames(machine_.pool().names());
    return std::make_shared<const IterationTemplate>(std::move(builder.out));
}

TrainingReport
LerGanAccelerator::trainIterations(int n, Tracer *tracer,
                                   MetricsRegistry *metrics,
                                   const IterationTemplate *tmpl,
                                   ExecRecord *record)
{
    LERGAN_ASSERT(n > 0, "need at least one iteration");
    // The rebuild path is replay of a just-built template, so both
    // paths produce byte-identical results by construction.
    std::shared_ptr<const IterationTemplate> own;
    if (!tmpl) {
        own = makeIterationTemplate();
        tmpl = own.get();
    }
    const PicoSeconds makespan =
        runIteration(*tmpl, scratch_, tracer, metrics, record);
    return assembleReport(model_, config_, *compiled_, *tmpl, n, makespan);
}

PicoSeconds
runIteration(const IterationTemplate &tmpl, ExecScratch &scratch,
             Tracer *tracer, MetricsRegistry *metrics, ExecRecord *record)
{
    if (tracer)
        tracer->clear();
    if (metrics) {
        for (std::size_t i = kFirstCounter; i < kNumQuantities; ++i) {
            const auto q = static_cast<Quantity>(i);
            if (tmpl.ledger.has(q))
                metrics->counter(quantityName(q))
                    .add(static_cast<std::uint64_t>(tmpl.ledger.value(q)));
        }
    }

    // The executor writes only the record; the trace and the sim.*
    // occupancy metrics are derived from it after the run, so a caller
    // that wants only those records into the scratch's reusable one.
    ExecRecord *run = record;
    if (!run && (tracer || metrics))
        run = &scratch.observerRecord();
    const PicoSeconds makespan = tmpl.graph.execute(&scratch, run);
    if (run)
        deriveObservers(tmpl.graph, *run, tracer, metrics, scratch);
    if (metrics) {
        metrics->counter("sim.iterations").add(1);
        recordPoolMetrics(tmpl.graph, scratch, *metrics);
    }
    return makespan;
}

TrainingReport
assembleReport(const GanModel &model, const AcceleratorConfig &config,
               const CompiledGan &compiled, const IterationTemplate &tmpl,
               int n, PicoSeconds iteration_time)
{
    LERGAN_ASSERT(n > 0, "need at least one iteration");
    TrainingReport report;
    report.benchmark = model.name;
    report.config = config.label();
    report.iterationTime = iteration_time;
    tmpl.ledger.foldInto(report.stats);
    report.stats.set("sim.tasks", static_cast<double>(tmpl.graph.size()));
    // Snapshot of the energy total at the moment the run produced it;
    // the audit layer compares the prefix sum against this to detect
    // post-run mutation of any component (audit/audit.hh).
    report.stats.set("audit.energy_total_pj",
                     report.stats.sumPrefix("energy."));
    report.crossbarsUsed = compiled.crossbarsUsed;
    report.compileMs = compiled.compileMs;
    report.compileMsTraditional = compiled.compileMsTraditional;
    if (compiled.faultImpact.active) {
        // Degradation accounting rides the normal stats channel so the
        // sweep exporters and the Monte Carlo aggregator see it without
        // a side channel. Healthy runs emit nothing (byte-identical
        // reports with the fault-unaware simulator).
        const FaultImpact &impact = compiled.faultImpact;
        report.stats.set("fault.killed_tiles",
                         static_cast<double>(impact.killedTiles));
        report.stats.set("fault.dead_crossbars",
                         static_cast<double>(impact.deadCrossbars));
        report.stats.set("fault.capacity_lost_xbars",
                         static_cast<double>(impact.capacityLostCrossbars));
        report.stats.set("fault.capacity_lost_frac",
                         impact.capacityLostFraction);
        report.stats.set("fault.remapped_xbars",
                         static_cast<double>(impact.remappedCrossbars));
    }
    report.stats.set("total.iterations", n);
    report.stats.set("total.time_ms", report.timeMs() * n);
    report.stats.set("total.energy_mj", pjToMj(report.totalEnergyPj()) * n);
    return report;
}

TrainingReport
estimateReport(const GanModel &model, const AcceleratorConfig &config,
               const CompiledGan &compiled, const IterationTemplate &tmpl,
               int n, PicoSeconds per_iteration)
{
    // Everything but the makespan is a build-time fact of the template;
    // only the timing channel carries the analytic estimate.
    TrainingReport report =
        assembleReport(model, config, compiled, tmpl, n, per_iteration);
    report.stats.set("critpath.estimated", 1.0);
    return report;
}

} // namespace lergan
