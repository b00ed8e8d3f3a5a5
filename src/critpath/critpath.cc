#include "critpath/critpath.hh"

#include <algorithm>
#include <iomanip>
#include <map>

#include "common/logging.hh"
#include "sim/utilization.hh"

namespace lergan {

std::string_view
taskPhaseOf(std::string_view label)
{
    if (label.starts_with("xfer:") || label.starts_with("load:"))
        return "transfers";
    if (label.starts_with("update:") ||
        label.find(".grad.readout") != std::string_view::npos ||
        label.find(".update.cpu") != std::string_view::npos) {
        return "updates";
    }
    const auto at = label.find('@');
    if (at != std::string_view::npos)
        return label.substr(at + 1);
    return "other";
}

PicoSeconds
CriticalPath::criticalDuration() const
{
    PicoSeconds total = 0;
    for (const CritEntry &entry : entries)
        total += entry.duration;
    return total;
}

std::size_t
CriticalPath::zeroSlackTasks() const
{
    std::size_t count = 0;
    for (PicoSeconds s : slack)
        count += s == 0;
    return count;
}

namespace {

/** Rollup of a name -> duration map, sorted by share descending. */
CritRollup
sortedRollup(const std::map<std::string, PicoSeconds> &totals)
{
    CritRollup rollup(totals.begin(), totals.end());
    std::sort(rollup.begin(), rollup.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    return rollup;
}

/**
 * Per-task slack from a backward pass over the recorded timing graph:
 * dependency edges plus, for every reservation, the edge from the
 * previous holder. Both edge kinds guarantee start(succ) >= end(pred),
 * so latest-end times computed against them are feasible; the makespan
 * task (and, by induction, every binding chain into it) gets zero.
 */
std::vector<PicoSeconds>
computeSlack(const TaskGraph &graph, const ExecRecord &record)
{
    const std::size_t n = graph.size();

    // Backward pass in reverse completion order (a reverse topological
    // order of the timing graph): the latest a task may end without
    // pushing any successor past its own latest end — or the makespan,
    // for sinks. Dependency successors are pulled from the graph's CSR;
    // reservation edges are recorded predecessor-side (resPrev), so each
    // task pushes its latest start to its previous holders instead.
    std::vector<PicoSeconds> lateEnd(n, record.makespan);
    std::vector<PicoSeconds> slack(n, 0);
    const std::vector<std::size_t> order = record.completionOrder();
    for (std::size_t i = order.size(); i-- > 0;) {
        const TaskId id = order[i];
        PicoSeconds late = lateEnd[id];
        for (const TaskId succ : graph.successors(id))
            late = std::min(late, lateEnd[succ] - graph.duration(succ));
        lateEnd[id] = late;
        slack[id] = late - record.end[id];
        const PicoSeconds lateStart = late - graph.duration(id);
        const std::size_t first = graph.resourceOffset(id);
        for (std::size_t slot = first;
             slot < first + graph.resources(id).size(); ++slot) {
            const std::uint32_t prev = record.resPrev[slot];
            if (prev != ExecRecord::kNoTask32)
                lateEnd[prev] = std::min(lateEnd[prev], lateStart);
        }
    }
    return slack;
}

} // namespace

CriticalPath
extractCriticalPath(const TaskGraph &graph, const ExecRecord &record,
                    const std::vector<std::string> &resource_names)
{
    CriticalPath path;
    if (record.empty() || record.lastTask == kNoTask)
        return path;
    LERGAN_ASSERT(record.start.size() == graph.size(),
                  "execution record does not match the graph: ",
                  record.start.size(), " vs ", graph.size(), " tasks");
    path.makespan = record.makespan;

    // Walk binding predecessors back from the makespan task. Every hop
    // satisfies start(task) == end(pred), and predecessors fired
    // strictly earlier, so the walk terminates at a task that started
    // at time zero.
    std::vector<TaskId> chain;
    for (TaskId id = record.lastTask; id != kNoTask;
         id = record.bindingPred[id]) {
        chain.push_back(id);
        LERGAN_ASSERT(chain.size() <= graph.size(),
                      "binding-predecessor cycle");
    }
    std::reverse(chain.begin(), chain.end());

    std::map<std::string, PicoSeconds> by_phase;
    std::map<std::string, PicoSeconds> by_category;
    path.entries.reserve(chain.size());
    for (TaskId id : chain) {
        const auto resources = graph.resources(id);
        CritEntry entry;
        entry.task = id;
        entry.label = graph.label(id);
        entry.phase = std::string(taskPhaseOf(entry.label));
        entry.kind = record.bindingKind[id];
        if (entry.kind == BindingKind::Resource &&
            record.bindingRes[id] < resource_names.size()) {
            entry.resource = resource_names[record.bindingRes[id]];
        }
        entry.category =
            resources.empty() || resources.front() >= resource_names.size()
                ? "none"
                : resourceCategoryOf(resource_names[resources.front()]);
        entry.start = record.start[id];
        entry.duration = graph.duration(id);
        by_phase[entry.phase] += entry.duration;
        by_category[entry.category] += entry.duration;
        path.entries.push_back(std::move(entry));
    }
    path.phaseRollup = sortedRollup(by_phase);
    path.resourceRollup = sortedRollup(by_category);
    path.slack = computeSlack(graph, record);
    return path;
}

namespace {

void
printRollup(std::ostream &os, const char *title,
            const CritRollup &rollup, PicoSeconds makespan)
{
    os << "  " << std::left << std::setw(14) << title << std::right;
    for (const auto &[name, time] : rollup) {
        os << "  " << name << " " << std::fixed << std::setprecision(1)
           << (makespan ? 100.0 * static_cast<double>(time) /
                              static_cast<double>(makespan)
                        : 0.0)
           << "%";
    }
    os << '\n';
}

} // namespace

void
CriticalPath::print(std::ostream &os, std::size_t top_k) const
{
    os << "  critical path: " << entries.size() << " links, "
       << std::fixed << std::setprecision(3) << psToMs(makespan)
       << " ms, " << zeroSlackTasks() << " zero-slack tasks\n";
    printRollup(os, "by phase:", phaseRollup, makespan);
    printRollup(os, "by resource:", resourceRollup, makespan);

    // The top_k longest links, heaviest first (ties: earliest start).
    std::vector<const CritEntry *> longest;
    longest.reserve(entries.size());
    for (const CritEntry &entry : entries)
        if (entry.duration > 0)
            longest.push_back(&entry);
    std::sort(longest.begin(), longest.end(),
              [](const CritEntry *a, const CritEntry *b) {
                  if (a->duration != b->duration)
                      return a->duration > b->duration;
                  return a->start < b->start;
              });
    if (longest.size() > top_k)
        longest.resize(top_k);
    for (const CritEntry *entry : longest) {
        os << "    " << std::fixed << std::setprecision(3)
           << std::setw(10) << psToMs(entry->duration) << " ms  "
           << std::left << std::setw(28) << entry->label << std::right
           << "  [" << bindingKindName(entry->kind);
        if (!entry->resource.empty())
            os << " " << entry->resource;
        os << "]\n";
    }
}

std::shared_ptr<const RecordedRun>
makeRecordedRun(std::shared_ptr<const TaskGraph> graph,
                std::vector<std::string> resource_names,
                ExecRecord record)
{
    auto run = std::make_shared<RecordedRun>();
    run->graph = std::move(graph);
    run->resourceNames = std::move(resource_names);
    run->record = std::move(record);
    run->path = extractCriticalPath(*run->graph, run->record,
                                    run->resourceNames);
    return run;
}

std::size_t
appendCriticalTrack(Tracer &tracer, const CriticalPath &path,
                    std::vector<std::string> &lane_names)
{
    // Resource lanes are the resource ids, so the first index past the
    // full name list is guaranteed unused by task spans.
    const std::size_t lane = lane_names.size();
    lane_names.push_back("critical path");
    for (const CritEntry &entry : path.entries) {
        tracer.record(entry.label, entry.start,
                      entry.start + entry.duration, lane);
    }
    return lane;
}

} // namespace lergan
