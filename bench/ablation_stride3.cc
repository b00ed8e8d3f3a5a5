/**
 * @file
 * Ablation: ZFDR on future large-stride GANs (paper Sec. IV-A claims
 * ZFDR is "capable of handling both existing GANs and future GANs with
 * larger stride (e.g. stride of 3)").
 *
 * Compares a synthetic stride-3 GAN against a like-for-like stride-2
 * control: stride 3 inserts two zeros per element, so the zero ratio is
 * worse and ZFDR's compute/storage savings must grow, not break.
 */

#include "bench_util.hh"

int
main()
{
    using namespace lergan;
    using namespace lergan::bench;
    banner("Ablation: ZFDR on a stride-3 GAN",
           "ZFDR stays zero-free and its benefit grows with the stride");

    TextTable table({"metric", "FutureGAN-s2", "FutureGAN-s3"});
    const GanModel s2 = futureGanStride2Control();
    const GanModel s3 = futureGanStride3();

    auto for_both = [&](const char *name, auto fn) {
        table.addRow({name, fn(s2), fn(s3)});
    };

    for_both("G.fwd multiply efficiency w/o ZFDR", [](const GanModel &m) {
        return TextTable::num(
                   100.0 * analyzePhase(m, Phase::GFwd).multEfficiency(),
                   1) +
               "%";
    });
    for_both("input storage blowup w/o ZFDR", [](const GanModel &m) {
        return TextTable::num(analyzeModel(m).storageBlowup()) + "x";
    });
    const auto prime = [](const GanModel &m) {
        return SimulationSession(AcceleratorConfig::prime()).run(m);
    };
    const auto lergan = [](const GanModel &m) {
        return SimulationSession(
                   AcceleratorConfig::lerGan(ReplicaDegree::High))
            .run(m);
    };
    for_both("LerGAN-high ms/iter", [&](const GanModel &m) {
        return TextTable::num(lergan(m).timeMs(), 2);
    });
    for_both("speedup over PRIME", [&](const GanModel &m) {
        return TextTable::num(prime(m).timeMs() / lergan(m).timeMs()) + "x";
    });
    for_both("energy saving over PRIME", [&](const GanModel &m) {
        return TextTable::num(prime(m).totalEnergyPj() /
                              lergan(m).totalEnergyPj()) +
               "x";
    });
    table.print(std::cout);

    // The coverage invariant must hold for every stride-3 sparse op.
    std::uint64_t checked = 0;
    for (Phase phase : kAllPhases) {
        for (const LayerOp &op : opsForPhase(s3, phase)) {
            if (!op.zfdrApplicable())
                continue;
            const ReshapeAnalysis analysis = analyzeReshape(op);
            if (analysis.corner.servedPositions +
                    analysis.edge.servedPositions +
                    analysis.inside.servedPositions !=
                analysis.totalPositions) {
                std::cout << "COVERAGE VIOLATION in " << op.label << "\n";
                return 1;
            }
            ++checked;
        }
    }
    std::cout << "\ncoverage invariant verified on " << checked
              << " stride-3 sparse ops\n";
    return 0;
}
