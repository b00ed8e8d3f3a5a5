#include "exec/model_cache.hh"

#include <sstream>

#include "reram/params_io.hh"

namespace lergan {

namespace {

/** Stream one layer's shape-defining fields. */
void
fingerprintLayer(std::ostream &os, const LayerSpec &layer)
{
    os << static_cast<int>(layer.kind) << ',' << layer.inChannels << ','
       << layer.outChannels << ',' << layer.inSize << ',' << layer.outSize
       << ',' << layer.spatialDims << ',' << layer.kernel << ','
       << layer.stride << ',' << layer.pad << ',' << layer.padHi << ','
       << layer.rem << ';';
}

} // namespace

std::string
modelFingerprint(const GanModel &model)
{
    std::ostringstream oss;
    oss << model.name << '|' << model.itemSize << '|' << model.spatialDims
        << "|G:";
    for (const LayerSpec &layer : model.generator)
        fingerprintLayer(oss, layer);
    oss << "D:";
    for (const LayerSpec &layer : model.discriminator)
        fingerprintLayer(oss, layer);
    return oss.str();
}

std::string
configFingerprint(const AcceleratorConfig &config)
{
    std::ostringstream oss;
    oss << static_cast<int>(config.connection) << '|'
        << static_cast<int>(config.reshape) << '|'
        << static_cast<int>(config.degree) << '|' << config.duplicate
        << '|' << config.normalizedSpace << '|'
        << config.spaceBudgetCrossbars << '|' << config.cuPairs << '|'
        << config.batchSize << '|' << config.horizontalWires << '|'
        << config.verticalWires << "|pd:";
    for (const auto &[phase, degree] : config.phaseDegrees)
        oss << static_cast<int>(phase) << '=' << static_cast<int>(degree)
            << ',';
    oss << "|ft:";
    for (const auto &[bank, tile] : config.failedTiles)
        oss << bank << '.' << tile << ',';
    oss << "|flt:";
    oss.precision(17);
    oss << config.faults.seed << ',' << config.faults.cellStuckRate << ','
        << config.faults.stuckAtLrsShare << ','
        << config.faults.columnStuckRate << ','
        << config.faults.tileKillRate << ','
        << config.faults.cellTolerance << ','
        << config.faults.columnTolerance << ','
        << config.faults.tileDeadCrossbarTolerance << ','
        << config.faults.priorIterations << ','
        << config.faults.cellEndurance;
    oss << "|reram:";
    // Round-trips every tunable as "key = value" text, so two configs
    // fingerprint equal iff all device parameters agree.
    saveParams(oss, config.reram);
    return oss.str();
}

std::string
pairFingerprint(const GanModel &model, const AcceleratorConfig &config)
{
    return modelFingerprint(model) + "##" + configFingerprint(config);
}

} // namespace lergan
