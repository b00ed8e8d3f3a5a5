/**
 * @file
 * Phase-level timing breakdown (analysis companion to the paper's
 * Fig. 7/8/13 dataflow discussion): how long each training phase is
 * active and how much the phases overlap under pipelining. Phase
 * windows summing to far more than 100% of the iteration is the
 * overlap the 3D connection enables.
 */

#include "bench_util.hh"

#include "core/phase_report.hh"

int
main()
{
    using namespace lergan;
    using namespace lergan::bench;
    banner("Phase-level timing breakdown (DCGAN)",
           "companion analysis to the Fig. 13 dataflows");

    for (const auto &[name, config] :
         {std::pair<const char *, AcceleratorConfig>{
              "LerGAN-high",
              AcceleratorConfig::lerGan(ReplicaDegree::High)},
          {"PRIME", AcceleratorConfig::prime()}}) {
        const GanModel model = makeBenchmark("DCGAN");
        LerGanAccelerator accelerator(model, config);
        const auto tmpl = accelerator.makeIterationTemplate();
        ExecRecord record;
        const TrainingReport report = accelerator.trainIterations(
            1, nullptr, nullptr, tmpl.get(), &record);
        std::cout << name << " (" << report.timeMs() << " ms/iter):\n";
        printPhaseTimes(std::cout, tmpl->graph, record);
        std::cout << '\n';
    }
    return 0;
}
