#include "reram/tile.hh"

namespace lergan {

PicoSeconds
TileModel::mmvTime(std::uint64_t waves) const
{
    return nsToPs(params_.mmvWaveNs * static_cast<double>(waves));
}

void
TileModel::chargeMmv(BuildLedger &ledger,
                     std::uint64_t crossbar_activations) const
{
    const double n = static_cast<double>(crossbar_activations);
    ledger.add(Quantity::ComputeAdc, params_.adcPjPerXbar * n);
    ledger.add(Quantity::ComputeCell, params_.cellPjPerXbar * n);
    ledger.add(Quantity::ComputeDac, params_.dacPjPerXbar * n);
    ledger.add(Quantity::ComputeSh, params_.shPjPerXbar * n);
    ledger.add(Quantity::ComputeDriver, params_.driverPjPerXbar * n);
    ledger.add(Quantity::CrossbarActivations, n);
}

void
TileModel::chargeBuffer(BuildLedger &ledger, Bytes bytes) const
{
    ledger.add(Quantity::Buffer,
               params_.bufferPjPerByte * static_cast<double>(bytes));
}

void
TileModel::chargeStorage(BuildLedger &ledger, Bytes read,
                         Bytes written) const
{
    // SArray accesses are tile-granularity reads/writes [Table IV],
    // charged per 16-byte access row.
    const double reads = static_cast<double>(read) / 16.0;
    const double writes = static_cast<double>(written) / 16.0;
    ledger.add(Quantity::Storage,
               params_.tileReadPj * reads + params_.tileWritePj * writes);
}

PicoSeconds
TileModel::chargeWeightWrite(BuildLedger &ledger,
                             std::uint64_t elems) const
{
    const double n = static_cast<double>(elems);
    // Updating a weight physically switches its cells; the Fig. 24
    // reproduction folds this into the cell-switching share.
    ledger.add(Quantity::Update, params_.weightWritePjPerElem * n);
    ledger.add(Quantity::WeightWrites, n);
    return nsToPs(params_.weightWriteNsPerElem * n);
}

PicoJoules
TileModel::perCrossbarEnergy() const
{
    return params_.adcPjPerXbar + params_.cellPjPerXbar +
           params_.dacPjPerXbar + params_.shPjPerXbar +
           params_.driverPjPerXbar;
}

} // namespace lergan
