/**
 * @file
 * Define your own GAN with the Table V topology DSL, inspect what ZFDR
 * finds in it, and simulate it with heterogeneous per-phase acceleration
 * (the paper's programmer-facing replica_degree knob, Sec. V).
 *
 * Usage:
 *   ./build/examples/custom_gan
 *   ./build/examples/custom_gan --gen "100f-(256t-128t)(4k2s)-t3" \
 *       --disc "(3c-128c-256c)(4k2s)-f1" --item 32 --batch 32
 */

#include <iostream>

#include "common/args.hh"
#include "core/api.hh"

int
main(int argc, char **argv)
{
    using namespace lergan;

    ArgParser args;
    args.addOption("gen", "generator topology (Table V DSL)",
                   "100f-(512t-256t-128t-64t)(4k2s)-t3");
    args.addOption("disc", "discriminator topology",
                   "(3c-64c-128c-256c-512c)(4k2s)-f1");
    args.addOption("item", "generated item side length", "64");
    args.addOption("dims", "spatial dimensions (2 or 3)", "2");
    args.addOption("batch", "training minibatch size", "64");
    args.parse(argc, argv,
               "define a custom GAN and explore its ZFDR structure");

    const GanModel model =
        parseGan("custom", args.get("gen"), args.get("disc"),
                 args.getInt("item"), args.getInt("dims"));

    std::cout << "Parsed '" << args.get("gen") << "' / '"
              << args.get("disc") << "': " << model.totalWeights()
              << " weights\n\n";

    // 1. What does ZFDR find to remove?
    std::cout << "Zero structure per phase:\n";
    for (Phase phase : kAllPhases) {
        const OpZeroStats stats = analyzePhase(model, phase);
        std::cout << "  " << phaseName(phase) << ": multiply efficiency "
                  << 100.0 * stats.multEfficiency()
                  << "% without ZFDR, storage blowup "
                  << stats.storageBlowup() << "x\n";
    }

    // 2. Reshape classes of the first sparse layer (the paper's
    //    Corner/Edge/Inside decomposition, Sec. IV-A).
    for (const LayerOp &op : opsForPhase(model, Phase::GFwd)) {
        if (!op.zfdrApplicable())
            continue;
        const ReshapeAnalysis analysis = analyzeReshape(op);
        std::cout << "\n" << op.label << " reshaped weight matrices:\n"
                  << "  corner: " << analysis.corner.matrices
                  << " (reuse <= " << analysis.corner.maxReuse << ")\n"
                  << "  edge:   " << analysis.edge.matrices
                  << " (reuse <= " << analysis.edge.maxReuse << ")\n"
                  << "  inside: " << analysis.inside.matrices
                  << " (reuse <= " << analysis.inside.maxReuse << ")\n";
        break;
    }

    // 3. Heterogeneous acceleration: spend duplication budget only on
    //    the discriminator's weight-gradient phase, where the per-item
    //    crossbar writes hurt most.
    AcceleratorConfig uniform = AcceleratorConfig::lerGan(
        ReplicaDegree::Low);
    uniform.batchSize = args.getInt("batch");

    AcceleratorConfig hetero = uniform;
    hetero.phaseDegrees[Phase::DBwdWeight] = ReplicaDegree::High;
    hetero.phaseDegrees[Phase::GBwdWeight] = ReplicaDegree::High;

    AcceleratorConfig all_high =
        AcceleratorConfig::lerGan(ReplicaDegree::High);
    all_high.batchSize = args.getInt("batch");

    std::cout << "\nHeterogeneous acceleration (Sec. V):\n";
    for (const auto &[name, config] :
         {std::pair<const char *, AcceleratorConfig>{"uniform low",
                                                     uniform},
          {"low + high weight-grad phases", hetero},
          {"uniform high", all_high}}) {
        const TrainingReport report = SimulationSession(config).run(model);
        std::cout << "  " << name << ": " << report.timeMs() << " ms, "
                  << pjToMj(report.totalEnergyPj()) << " mJ, "
                  << report.crossbarsUsed << " crossbars\n";
    }
    return 0;
}
