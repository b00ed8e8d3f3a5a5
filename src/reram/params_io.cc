#include "reram/params_io.hh"

#include <fstream>
#include <functional>
#include <map>

#include "common/logging.hh"
#include "common/strings.hh"

namespace lergan {

namespace {

/** Accessor table mapping config keys to struct fields. */
struct Field {
    std::function<double(const ReRamParams &)> get;
    std::function<void(ReRamParams &, double)> set;
};

const std::map<std::string, Field> &
fields()
{
    static const std::map<std::string, Field> table = [] {
        std::map<std::string, Field> t;
        auto add = [&t](const std::string &key, auto member) {
            t[key] = Field{
                [member](const ReRamParams &p) {
                    return static_cast<double>(p.*member);
                },
                [member](ReRamParams &p, double v) {
                    using T = std::decay_t<decltype(p.*member)>;
                    p.*member = static_cast<T>(v);
                }};
        };
        add("bank_read_ns", &ReRamParams::bankReadNs);
        add("htree_ns", &ReRamParams::htreeNs);
        add("tile_read_ns", &ReRamParams::tileReadNs);
        add("tile_read_pj", &ReRamParams::tileReadPj);
        add("tile_write_pj", &ReRamParams::tileWritePj);
        add("adc_pj_per_xbar", &ReRamParams::adcPjPerXbar);
        add("cell_pj_per_xbar", &ReRamParams::cellPjPerXbar);
        add("dac_pj_per_xbar", &ReRamParams::dacPjPerXbar);
        add("sh_pj_per_xbar", &ReRamParams::shPjPerXbar);
        add("driver_pj_per_xbar", &ReRamParams::driverPjPerXbar);
        add("mmv_wave_ns", &ReRamParams::mmvWaveNs);
        add("hop_pj_per_byte", &ReRamParams::hopPjPerByte);
        add("bus_pj_per_byte", &ReRamParams::busPjPerByte);
        add("buffer_pj_per_byte", &ReRamParams::bufferPjPerByte);
        add("weight_write_ns_per_elem",
            &ReRamParams::weightWriteNsPerElem);
        add("weight_write_pj_per_elem",
            &ReRamParams::weightWritePjPerElem);
        add("switch_reconfig_ns", &ReRamParams::switchReconfigNs);
        add("switch_reconfig_pj", &ReRamParams::switchReconfigPj);
        add("controller_pj_per_task",
            &ReRamParams::controllerPjPerTask);
        add("link_bytes_per_ns", &ReRamParams::linkBytesPerNs);
        return t;
    }();
    return table;
}

} // namespace

void
loadParams(std::istream &is, ReRamParams &params)
{
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            LERGAN_FATAL("params line ", line_no, ": expected key = value");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        auto it = fields().find(key);
        if (it == fields().end())
            LERGAN_FATAL("params line ", line_no, ": unknown key '", key,
                         "'");
        try {
            std::size_t used = 0;
            const double parsed = std::stod(value, &used);
            if (used != value.size())
                throw std::invalid_argument(value);
            it->second.set(params, parsed);
        } catch (const std::exception &) {
            LERGAN_FATAL("params line ", line_no, ": malformed number '",
                         value, "'");
        }
    }
}

ReRamParams
loadParamsFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        LERGAN_FATAL("cannot open params file '", path, "'");
    ReRamParams params;
    loadParams(file, params);
    return params;
}

void
saveParams(std::ostream &os, const ReRamParams &params)
{
    os << "# LerGAN ReRAM device parameters\n";
    for (const auto &[key, field] : fields())
        os << key << " = " << field.get(params) << '\n';
}

} // namespace lergan
