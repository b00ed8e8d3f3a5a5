#include "core/validate.hh"

#include <set>
#include <sstream>
#include <stdexcept>

namespace lergan {

namespace {

/** printf-lite helper appending a violation line. */
template <typename... Args>
void
flag(ValidationResult &result, Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    result.violations.push_back(oss.str());
}

} // namespace

ValidationResult
validateMapping(const GanModel &model, const AcceleratorConfig &config,
                const CompiledGan &compiled)
{
    ValidationResult result;
    const int banks = 6 * config.cuPairs;
    const std::uint64_t per_tile = config.reram.crossbarsPerTile();
    std::set<std::pair<int, int>> failed(config.failedTiles.begin(),
                                         config.failedTiles.end());

    if (compiled.phases.size() != 6) {
        flag(result, "expected 6 compiled phases, got ",
             compiled.phases.size());
        return result;
    }

    std::uint64_t update_d = 0, update_g = 0;
    for (const CompiledPhase &phase : compiled.phases) {
        const std::size_t expected_layers =
            phase.phase == Phase::GFwd || phase.phase == Phase::GBwdErr ||
                    phase.phase == Phase::GBwdWeight
                ? model.generator.size()
                : model.discriminator.size();
        if (phase.ops.size() != expected_layers) {
            flag(result, phaseName(phase.phase), ": ", phase.ops.size(),
                 " ops for ", expected_layers, " layers");
        }
        for (const MappedOp &op : phase.ops) {
            if (op.bank < 0 || op.bank >= banks)
                flag(result, op.op.label, ": bank ", op.bank,
                     " out of range");
            else if (op.bank % 6 != bankForPhase(phase.phase))
                flag(result, op.op.label, ": bank role mismatch");

            if (op.cost.waves == 0)
                flag(result, op.op.label, ": zero waves");
            if (op.cost.inputElems == 0 || op.cost.outputElems == 0)
                flag(result, op.op.label, ": zero traffic");

            const std::uint64_t need =
                std::max<std::uint64_t>(1, op.cost.crossbarsUsed);
            if (op.allocation.reserved() + op.allocation.oversubscribed !=
                need) {
                flag(result, op.op.label, ": allocation covers ",
                     op.allocation.reserved() +
                         op.allocation.oversubscribed,
                     " of ", need, " crossbars");
            }
            if (op.allocation.ranges.empty())
                flag(result, op.op.label, ": allocation reserves no tile");
            for (const CrossbarRange &range : op.allocation.ranges) {
                if (range.bank != op.bank)
                    flag(result, op.op.label, ": range in foreign bank");
                if (range.tile < 0 ||
                    range.tile >= config.reram.tilesPerBank)
                    flag(result, op.op.label, ": range tile ",
                         range.tile, " out of bounds");
                if (range.count > 0 &&
                    failed.count({range.bank, range.tile}))
                    flag(result, op.op.label,
                         ": crossbars placed on failed tile ",
                         range.bank, "/", range.tile);
                if (range.first + range.count > per_tile)
                    flag(result, op.op.label,
                         ": range exceeds tile capacity");
            }

            const bool is_weight_phase =
                phase.phase == Phase::DBwdWeight ||
                phase.phase == Phase::GBwdWeight;
            if (!is_weight_phase) {
                if (phase.phase == Phase::GFwd ||
                    phase.phase == Phase::GBwdErr) {
                    update_g += op.cost.weightElems;
                } else {
                    update_d += op.cost.weightElems;
                }
            }
        }
    }

    if (update_d != compiled.updateElemsD)
        flag(result, "discriminator update volume mismatch: ", update_d,
             " vs ", compiled.updateElemsD);
    if (update_g != compiled.updateElemsG)
        flag(result, "generator update volume mismatch: ", update_g,
             " vs ", compiled.updateElemsG);

    if (static_cast<int>(compiled.bankUsage.size()) != banks) {
        flag(result, "bank usage table has ", compiled.bankUsage.size(),
             " banks, expected ", banks);
    } else {
        for (int bank = 0; bank < banks; ++bank) {
            for (int tile = 0; tile < config.reram.tilesPerBank; ++tile) {
                if (compiled.bankUsage[bank][tile] > per_tile)
                    flag(result, "bank ", bank, " tile ", tile,
                         " over capacity");
                if (compiled.bankUsage[bank][tile] > 0 &&
                    failed.count({bank, tile}))
                    flag(result, "bank ", bank, " tile ", tile,
                         " is failed but used");
            }
        }
    }
    return result;
}

void
throwIfInvalid(const GanModel &model, const AcceleratorConfig &config,
               const CompiledGan &compiled)
{
    const ValidationResult result =
        validateMapping(model, config, compiled);
    if (result.ok())
        return;
    std::ostringstream oss;
    oss << "invalid mapping for " << model.name << " on "
        << config.label() << ":";
    for (const std::string &violation : result.violations)
        oss << "\n  " << violation;
    throw std::runtime_error(oss.str());
}

CompiledGan
compileGanValidated(const GanModel &model, const AcceleratorConfig &config)
{
    CompiledGan compiled = compileGan(model, config);
    throwIfInvalid(model, config, compiled);
    return compiled;
}

} // namespace lergan
