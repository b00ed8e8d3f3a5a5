#include "common/stats.hh"

#include <iomanip>

namespace lergan {

void
StatSet::add(const std::string &name, double delta)
{
    values_[name] += delta;
}

void
StatSet::set(const std::string &name, double value)
{
    values_[name] = value;
}

double
StatSet::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatSet::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

void
StatSet::merge(const StatSet &other)
{
    for (const auto &[name, value] : other.values_)
        values_[name] += value;
}

void
StatSet::scale(double factor)
{
    for (auto &[name, value] : values_)
        value *= factor;
}

double
StatSet::sumPrefix(const std::string &prefix) const
{
    double total = 0.0;
    for (auto it = values_.lower_bound(prefix); it != values_.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        total += it->second;
    }
    return total;
}

void
StatSet::print(std::ostream &os, const std::string &prefix) const
{
    for (const auto &[name, value] : values_) {
        if (!prefix.empty() &&
            name.compare(0, prefix.size(), prefix) != 0) {
            continue;
        }
        os << std::left << std::setw(40) << name << " = "
           << std::setprecision(12) << value << '\n';
    }
}

} // namespace lergan
