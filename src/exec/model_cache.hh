/**
 * @file
 * Fingerprints of (model, config) pairs and the compiled-model cache.
 *
 * Compiling a GAN (ZFDM analysis, duplication fitting, placement) is
 * pure: the same model under the same configuration always produces the
 * same mapping. pairFingerprint keys on a structural fingerprint of
 * both — every layer field and every configuration knob including the
 * ReRAM device parameters — so repeated runs (sessions, repeated
 * sweeps, baselines recompiled per figure) stop paying the compile cost
 * per use.
 *
 * CompiledModelCache is the generic MemoCache (exec/memo_cache.hh) over
 * CompiledGan; the caller computes the key once per point and uses it
 * for the per-iteration DAG templates (core/sweep.hh) too, so
 * everything derived from a (model, config) pair shares one identity.
 * The compile step is the caller's build callback, which keeps this
 * module below core in the library stack (exec does not link the
 * compiler).
 */

#ifndef LERGAN_EXEC_MODEL_CACHE_HH
#define LERGAN_EXEC_MODEL_CACHE_HH

#include <string>

#include "core/compiler.hh"
#include "exec/memo_cache.hh"

namespace lergan {

/** Structural fingerprint of a model: name plus every layer field. */
std::string modelFingerprint(const GanModel &model);

/** Fingerprint of a configuration, device parameters included. */
std::string configFingerprint(const AcceleratorConfig &config);

/** The cache key of a (model, config) pair. */
std::string pairFingerprint(const GanModel &model,
                            const AcceleratorConfig &config);

/** Shared store of compiled (model, config) mappings, keyed by
 *  pairFingerprint. */
using CompiledModelCache = MemoCache<CompiledGan>;

} // namespace lergan

#endif // LERGAN_EXEC_MODEL_CACHE_HH
