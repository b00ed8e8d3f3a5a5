/**
 * @file
 * Tile-level energy and latency accounting.
 *
 * A tile (PRIME-style, paper Sec. II-A) holds a CArray (crossbars doing
 * MMVs), a BArray (random-access buffer feeding the CArray) and an SArray
 * (plain storage). This model converts op costs (zfdr/cost.hh) into
 * component-resolved energy and occupancy time; the Fig. 24 tile energy
 * breakdown is read straight out of the ledger quantities charged here.
 */

#ifndef LERGAN_RERAM_TILE_HH
#define LERGAN_RERAM_TILE_HH

#include <cstdint>

#include "common/types.hh"
#include "reram/ledger.hh"
#include "reram/params.hh"

namespace lergan {

/** Stateless per-tile cost calculator (all tiles are identical). */
class TileModel
{
  public:
    explicit TileModel(const ReRamParams &params) : params_(params) {}

    const ReRamParams &params() const { return params_; }

    /** Latency of @p waves sequential MMV waves. */
    PicoSeconds mmvTime(std::uint64_t waves) const;

    /**
     * Charge the energy of @p crossbar_activations MMV crossbar firings
     * into @p ledger, split over the five Compute* components.
     */
    void chargeMmv(BuildLedger &ledger,
                   std::uint64_t crossbar_activations) const;

    /** Charge BArray traffic (Quantity::Buffer). */
    void chargeBuffer(BuildLedger &ledger, Bytes bytes) const;

    /** Charge SArray reads/writes (Quantity::Storage). */
    void chargeStorage(BuildLedger &ledger, Bytes read, Bytes written) const;

    /**
     * Charge a weight update of @p elems CArray elements
     * (Quantity::Update, also booked under cell switching since updates
     * physically switch cells). @return the write time.
     */
    PicoSeconds chargeWeightWrite(BuildLedger &ledger,
                                  std::uint64_t elems) const;

    /** Total energy of one crossbar activation (all components). */
    PicoJoules perCrossbarEnergy() const;

  private:
    ReRamParams params_;
};

} // namespace lergan

#endif // LERGAN_RERAM_TILE_HH
