/**
 * @file
 * Two-level calendar (ladder) priority queue with a same-instant lane:
 * the simulator's one discrete-event kernel.
 *
 * A DES workload is far friendlier than the general priority-queue case
 * — events cluster near the current time and the queue drains
 * monotonically — which is exactly what a calendar queue exploits:
 *
 *  - "near" holds the events inside the current time window, kept as a
 *    run sorted DESCENDING by (when, seq) so the next event pops off the
 *    back in O(1);
 *  - "far" holds everything beyond the window, completely unsorted, so
 *    scheduling a distant event is an O(1) append;
 *  - the "lane" holds events scheduled at the current instant, in
 *    schedule order: a plain FIFO, so the executor's fire events (a
 *    task fires the instant the completion that released it pops) and
 *    zero-duration completions skip the sorted insert.
 *
 * When near drains, the next window is carved out of far: the window
 * width adapts to the observed event density (span / count), the
 * matching entries are swept into near with one partition + sort, and
 * the rest stay unsorted.
 *
 * Determinism contract: events fire in ascending (when, seq) order,
 * where seq is the schedule order — equal-time events fire exactly in
 * the order they were scheduled. The lane keeps it without a seq of
 * its own: a near entry at now() was scheduled before time reached
 * now(), so it precedes every lane entry, and far entries always lie
 * beyond now(). pop() therefore drains near entries at now() first,
 * then the lane, and only then advances time. The property tests in
 * tests/test_properties.cc drive this queue and a std::multimap keyed
 * on (when, seq) with over a million randomized operations, plus
 * same-instant bursts and zero-duration chains, and assert identical
 * firing sequences.
 *
 * The queue is a template over the payload type; the task-graph
 * executor stores POD task events (no type erasure, no indirect
 * call). Scheduled events always fire: there is no
 * cancellation.
 */

#ifndef LERGAN_SIM_CALENDAR_QUEUE_HH
#define LERGAN_SIM_CALENDAR_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lergan {
namespace sim {

/** Deterministic two-level calendar queue over arbitrary payloads. */
template <typename Payload>
class CalendarQueue
{
  public:
    /** Current simulated time (the when of the last popped event). */
    PicoSeconds now() const { return now_; }

    /** Events scheduled and not yet fired. */
    std::size_t
    pending() const
    {
        return near_.size() + far_.size() + (lane_.size() - laneHead_);
    }

    bool empty() const { return pending() == 0; }

    /**
     * Schedule @p payload at absolute time @p when.
     *
     * @pre when >= now(); scheduling into the past is a simulator bug.
     */
    void
    scheduleAt(PicoSeconds when, Payload payload)
    {
        LERGAN_ASSERT(when >= now_,
                      "event scheduled into the past: ", when, " < ",
                      now_);
        if (when == now_) {
            // Same instant: behind every pending event, in FIFO order.
            lane_.push_back(std::move(payload));
            return;
        }
        LERGAN_ASSERT(nextSeq_ != UINT32_MAX,
                      "calendar queue sequence overflow");
        Entry entry{when, nextSeq_++, std::move(payload)};
        if (when < windowEnd_) {
            // Ordered insert into the sorted (descending) near run.
            const auto at = std::upper_bound(
                near_.begin(), near_.end(), entry, laterFirst);
            near_.insert(at, std::move(entry));
        } else {
            far_.push_back(std::move(entry));
        }
    }

    /**
     * Pop the next event: advances now() to its time and moves its
     * payload into @p out.
     *
     * @return false when the queue is drained (now() unchanged).
     */
    bool
    pop(Payload &out)
    {
        if (near_.empty() || near_.back().when != now_) {
            // Nothing older at now(): the lane is next, and time
            // advances only once it is drained.
            if (laneHead_ < lane_.size()) {
                out = std::move(lane_[laneHead_++]);
                return true;
            }
            lane_.clear();
            laneHead_ = 0;
            if (near_.empty() && !advanceWindow())
                return false;
        }
        Entry &entry = near_.back();
        now_ = entry.when;
        out = std::move(entry.payload);
        near_.pop_back();
        return true;
    }

    /** Drop all pending events and reset time and sequence to zero. */
    void
    reset()
    {
        near_.clear();
        far_.clear();
        lane_.clear();
        laneHead_ = 0;
        nextSeq_ = 0;
        now_ = 0;
        windowEnd_ = 0;
    }

  private:
    /** 16 bytes for a 4-byte payload (the executor's TaskEvent). */
    struct Entry {
        PicoSeconds when;
        std::uint32_t seq; ///< schedule order: ties fire first-in first
        Payload payload;
    };

    /** Descending (when, seq): the next event to fire sorts last. */
    static bool
    laterFirst(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    /**
     * Carve the next window out of far: pick a width matched to the
     * observed density, sweep the in-window entries into near (sorted),
     * keep the rest unsorted.
     *
     * @return false when far is empty too (the queue is drained).
     */
    bool
    advanceWindow()
    {
        if (far_.empty())
            return false;
        PicoSeconds lo = far_.front().when;
        PicoSeconds hi = lo;
        for (const Entry &entry : far_) {
            lo = std::min(lo, entry.when);
            hi = std::max(hi, entry.when);
        }
        // Aim for ~kTargetPerWindow events per window; always make
        // progress (width >= 1 guarantees the minimum entry moves).
        const PicoSeconds span = hi - lo + 1;
        const std::size_t windows =
            std::max<std::size_t>(1, far_.size() / kTargetPerWindow);
        const PicoSeconds width =
            std::max<PicoSeconds>(1, span / windows);
        // Unsigned-overflow-safe end of window.
        windowEnd_ = (lo + width < lo) ? hi + 1 : lo + width;

        // The in-window entries go to far's tail and move out from
        // there, so the kept entries never shift.
        auto beyondWindow = [this](const Entry &entry) {
            return entry.when >= windowEnd_;
        };
        const auto firstMoved =
            std::partition(far_.begin(), far_.end(), beyondWindow);
        near_.insert(near_.end(), std::make_move_iterator(firstMoved),
                     std::make_move_iterator(far_.end()));
        far_.erase(firstMoved, far_.end());
        std::sort(near_.begin(), near_.end(), laterFirst);
        return true;
    }

    static constexpr std::size_t kTargetPerWindow = 32;

    std::vector<Entry> near_; ///< current window, sorted descending
    std::vector<Entry> far_;  ///< beyond the window, unsorted
    std::vector<Payload> lane_; ///< scheduled at now(), FIFO
    std::size_t laneHead_ = 0;  ///< next lane entry to pop
    std::uint32_t nextSeq_ = 0;
    PicoSeconds now_ = 0;
    PicoSeconds windowEnd_ = 0;
};

} // namespace sim
} // namespace lergan

#endif // LERGAN_SIM_CALENDAR_QUEUE_HH
