/**
 * @file
 * The machine's serially-occupied hardware resources: their identity.
 *
 * A resource models one serially-occupied unit of hardware (a tile's MMV
 * pipeline, one interconnect link). Tasks reserve an interval starting no
 * earlier than both their ready time and the resource's next free time;
 * this yields first-come-first-served contention without modeling
 * per-cycle arbitration.
 *
 * The pool is what the code that builds a machine knows of each
 * resource, as columns indexed by the dense resource id: the diagnostic
 * name and the category it was created with. Nothing a run does is
 * stored here. A graph freezes each resource's busy time and
 * reservation count, which do not depend on the schedule
 * (TaskGraph::resourceBusy); a run's next-free and wait columns live in
 * the ExecScratch it executes on (ExecScratch::resourceWait).
 */

#ifndef LERGAN_SIM_RESOURCE_HH
#define LERGAN_SIM_RESOURCE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace lergan {

/**
 * What kind of hardware a resource is: the buckets the contention
 * metrics, the critical-path rollups and the what-if category
 * transforms group resources by.
 */
enum class ResourceCategory : std::uint8_t {
    Compute, ///< a tile's MMV pipeline
    Wire,    ///< an H-tree or added 3D wire
    Switch,  ///< a router switch
    Bus,     ///< a bank's link to the shared bus
    Cpu,     ///< the host CPU
    Other,   ///< anything else (the port-to-port bypass)
    None,    ///< no resource at all: never a pool resource's category
};

/** Number of ResourceCategory values. */
inline constexpr std::size_t kNumResourceCategories = 7;

/** Printable category names, indexed by ResourceCategory. */
inline constexpr const char
    *kResourceCategoryNames[kNumResourceCategories] = {
        "compute", "wire", "switch", "bus", "cpu", "other", "none",
};

/** The identity of a machine's resources, indexed by a dense id. */
class ResourcePool
{
  public:
    /**
     * Create a resource and return its id.
     * @param name     diagnostic name ("bank0.tile3", "link.v.12").
     * @param category what the resource is (not None).
     */
    std::size_t
    create(std::string name, ResourceCategory category)
    {
        names_.push_back(std::move(name));
        categories_.push_back(category);
        return names_.size() - 1;
    }

    std::size_t size() const { return names_.size(); }

    const std::string &name(std::size_t id) const { return names_[id]; }

    /** Every resource's name, indexed by resource id. */
    const std::vector<std::string> &names() const { return names_; }

    /** Every resource's category, indexed by resource id. */
    const std::vector<ResourceCategory> &categories() const
    {
        return categories_;
    }

  private:
    std::vector<std::string> names_;
    std::vector<ResourceCategory> categories_;
};

} // namespace lergan

#endif // LERGAN_SIM_RESOURCE_HH
