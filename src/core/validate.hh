/**
 * @file
 * Compiled-mapping validator.
 *
 * Checks the structural invariants a CompiledGan must satisfy before it
 * is worth simulating: bank roles, allocation consistency, capacity
 * accounting, coverage of all six phases, and per-op cost sanity. The
 * accelerator runs it on construction in debug spirit; tests and user
 * tooling can call it directly for actionable diagnostics.
 */

#ifndef LERGAN_CORE_VALIDATE_HH
#define LERGAN_CORE_VALIDATE_HH

#include <string>
#include <vector>

#include "core/compiler.hh"

namespace lergan {

/** Outcome of validating one compiled mapping. */
struct ValidationResult {
    /** Human-readable violations (empty = valid). */
    std::vector<std::string> violations;

    bool ok() const { return violations.empty(); }
};

/**
 * Validate @p compiled against @p model and @p config.
 *
 * Checked invariants:
 *  - all six phases present, each op in its phase's role bank
 *    (modulo the CU-pair offset) and within the machine's banks;
 *  - every allocation's reserved + oversubscribed crossbars equal the
 *    op's cost, it reserves at least one tile, and its ranges stay
 *    within tile bounds and avoid failed tiles;
 *  - bank usage never exceeds per-tile capacity;
 *  - per-op costs are non-degenerate (waves and traffic positive);
 *  - update volumes match the kernel-holding phases.
 */
ValidationResult validateMapping(const GanModel &model,
                                 const AcceleratorConfig &config,
                                 const CompiledGan &compiled);

/**
 * validateMapping(), but violations throw std::runtime_error with every
 * diagnostic joined into the message.
 */
void throwIfInvalid(const GanModel &model, const AcceleratorConfig &config,
                    const CompiledGan &compiled);

/**
 * compileGan() followed by throwIfInvalid(): the compile step the
 * session and sweep inject into the CompiledModelCache, so *every*
 * compile inside the execution engine is validated at the point it
 * enters the cache — not just when an accelerator is constructed.
 */
CompiledGan compileGanValidated(const GanModel &model,
                                const AcceleratorConfig &config);

} // namespace lergan

#endif // LERGAN_CORE_VALIDATE_HH
