/**
 * @file
 * The machine's serially-occupied hardware resources, as flat columns.
 *
 * A resource models one serially-occupied unit of hardware (a tile's MMV
 * pipeline, one interconnect link). Tasks reserve an interval starting no
 * earlier than both their ready time and the resource's next free time;
 * this yields first-come-first-served contention without modeling
 * per-cycle arbitration.
 *
 * The pool stores one column per field, indexed by the dense resource
 * id: the diagnostic name (cold), the category the code that made the
 * resource gave it, the next free time, and the busy, wait and
 * reservation totals. TaskGraph::execute is the only writer
 * besides resetAll(): it reads and advances nextFree in place per
 * reservation slot, charges wait to every slot of a task that queued,
 * and adds the busy and reservation totals — which do not depend on
 * the schedule — once per run from the totals its graph froze.
 */

#ifndef LERGAN_SIM_RESOURCE_HH
#define LERGAN_SIM_RESOURCE_HH

#include <algorithm>
#include <cstdint>
#include <string>
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

/** Owning pool of FIFO-reserved resources, indexed by a dense id. */
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
        nextFree_.push_back(0);
        busy_.push_back(0);
        wait_.push_back(0);
        reservations_.push_back(0);
        return names_.size() - 1;
    }

    std::size_t size() const { return names_.size(); }

    const std::string &name(std::size_t id) const { return names_[id]; }

    /** Every resource's category, indexed by resource id. */
    const std::vector<ResourceCategory> &categories() const
    {
        return categories_;
    }

    /** Earliest time a new reservation of @p id could begin. */
    PicoSeconds nextFree(std::size_t id) const { return nextFree_[id]; }

    /** Total time @p id has been occupied. */
    PicoSeconds busyTime(std::size_t id) const { return busy_[id]; }

    /**
     * Total time reservations of @p id spent queued behind earlier
     * ones: the summed gap between each task's ready (fire) time and
     * its actual start, charged to every resource the task holds. This
     * is the resource's contention, as opposed to its utilization.
     */
    PicoSeconds waitTime(std::size_t id) const { return wait_[id]; }

    /** Number of reservations made of @p id. */
    std::uint64_t
    reservations(std::size_t id) const
    {
        return reservations_[id];
    }

    /** Forget all reservations (new simulation run). */
    void
    resetAll()
    {
        std::fill(nextFree_.begin(), nextFree_.end(), 0);
        std::fill(busy_.begin(), busy_.end(), 0);
        std::fill(wait_.begin(), wait_.end(), 0);
        std::fill(reservations_.begin(), reservations_.end(), 0);
    }

  private:
    friend class TaskGraph;

    std::vector<std::string> names_;
    std::vector<ResourceCategory> categories_;
    std::vector<PicoSeconds> nextFree_;
    std::vector<PicoSeconds> busy_;
    std::vector<PicoSeconds> wait_;
    std::vector<std::uint64_t> reservations_;
};

} // namespace lergan

#endif // LERGAN_SIM_RESOURCE_HH
