#include "critpath/critpath.hh"

#include <algorithm>
#include <array>
#include <iomanip>
#include <span>

#include "common/json.hh"
#include "common/logging.hh"

namespace lergan {

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

/**
 * Chain time per value of the enum @p key picks from each entry, for
 * the values some entry has, under @p names, sorted by share
 * descending (ties by name).
 */
template <std::size_t N, typename Key>
CritRollup
sortedRollup(const std::vector<CritEntry> &entries,
             const char *const (&names)[N], Key key)
{
    std::array<PicoSeconds, N> time{};
    std::array<bool, N> seen{};
    for (const CritEntry &entry : entries) {
        const auto slot = static_cast<std::size_t>(key(entry));
        time[slot] += entry.duration;
        seen[slot] = true;
    }
    CritRollup rollup;
    for (std::size_t slot = 0; slot < N; ++slot)
        if (seen[slot])
            rollup.emplace_back(names[slot], time[slot]);
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
computeSlack(const TaskGraph &graph, const ExecRecord &record,
             ExecScratch::Analysis &buffers)
{
    const std::size_t n = graph.size();
    const SuccessorCsr successors = graph.successorCsr();
    const std::span<const PicoSeconds> duration = graph.durations();

    // Backward pass in reverse completion order (a reverse topological
    // order of the timing graph): the latest a task may end without
    // pushing any successor past its own latest start — or the
    // makespan, for sinks. Dependency successors are pulled from the
    // graph's CSR; a task's latest end is final once it is visited, so
    // its latest start is stored then and each successor costs one
    // read. Reservation edges are recorded predecessor-side (resPrev),
    // so each task pushes its latest start to its previous holders
    // instead; consecutive slots naming the same holder push the same
    // value, so only the first of such a run is applied. The
    // completions of the pop-order column, walked backward, are that
    // order reversed; no order vector is built.
    std::vector<PicoSeconds> &lateEnd = buffers.lateEnd;
    std::vector<PicoSeconds> &lateStart = buffers.lateStart;
    lateEnd.assign(n, record.makespan);
    lateStart.resize(n);
    std::vector<PicoSeconds> slack(n, 0);
    for (std::size_t i = record.popOrder.size(); i-- > 0;) {
        if (!ExecRecord::popIsCompletion(record.popOrder[i]))
            continue;
        const TaskId id = ExecRecord::popTask(record.popOrder[i]);
        PicoSeconds late = lateEnd[id];
        for (const std::uint32_t succ : successors.of(id))
            late = std::min(late, lateStart[succ]);
        slack[id] = late - record.end[id];
        const PicoSeconds start = late - duration[id];
        lateStart[id] = start;
        std::uint32_t pushed = ExecRecord::kNoTask32;
        for (std::size_t slot = graph.resourceOffset(id);
             slot < graph.resourceOffset(id + 1); ++slot) {
            const std::uint32_t prev = record.resPrev[slot];
            if (prev != pushed && prev != ExecRecord::kNoTask32)
                lateEnd[prev] = std::min(lateEnd[prev], start);
            pushed = prev;
        }
    }
    return slack;
}

} // namespace

CriticalPath
extractCriticalPath(const TaskGraph &graph, const ExecRecord &record,
                    std::vector<std::string> resource_names,
                    ExecScratch *scratch)
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
    // at time zero. The entries are collected backward, then reversed.
    for (std::uint32_t id = static_cast<std::uint32_t>(record.lastTask);
         id != ExecRecord::kNoTask32; id = record.bindingPred[id]) {
        LERGAN_ASSERT(path.entries.size() < graph.size(),
                      "binding-predecessor cycle");
        const auto resources = graph.resources(id);
        CritEntry entry;
        entry.task = id;
        entry.phase = graph.phase(id);
        entry.kind = record.bindingKind[id];
        if (entry.kind == BindingKind::Resource)
            entry.resource = record.bindingRes[id];
        entry.category = resources.empty()
                             ? ResourceCategory::None
                             : graph.resourceCategory(resources.front());
        entry.start = record.start[id];
        entry.duration = graph.duration(id);
        path.entries.push_back(entry);
    }
    std::reverse(path.entries.begin(), path.entries.end());
    path.tasks = graph.identity();
    path.resourceNames = std::move(resource_names);
    path.phaseRollup = sortedRollup(path.entries, kPhaseNames,
                                    [](const CritEntry &e) { return e.phase; });
    path.resourceRollup =
        sortedRollup(path.entries, kResourceCategoryNames,
                     [](const CritEntry &e) { return e.category; });
    ExecScratch::Analysis local;
    path.slack =
        computeSlack(graph, record, scratch ? scratch->analysis() : local);
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
           << std::left << std::setw(28) << tasks->label(entry->task)
           << std::right << "  [" << bindingKindName(entry->kind);
        if (entry->resource < resourceNames.size())
            os << " " << resourceNames[entry->resource];
        os << "]\n";
    }
}

void
CriticalPath::writeJson(JsonWriter &json) const
{
    json.key("critpath").beginObject();
    json.key("makespan_ms").value(psToMs(makespan));
    json.key("links").value(static_cast<std::uint64_t>(entries.size()));
    json.key("zero_slack_tasks").value(
        static_cast<std::uint64_t>(zeroSlackTasks()));
    for (const auto &[key, rollup] :
         {std::pair{"by_phase", &phaseRollup},
          std::pair{"by_resource", &resourceRollup}}) {
        json.key(key).beginObject();
        for (const auto &[name, time] : *rollup)
            json.key(name).value(psToMs(time));
        json.endObject();
    }
    json.endObject();
}

std::shared_ptr<const RecordedRun>
makeRecordedRun(std::shared_ptr<const TaskGraph> graph,
                std::vector<std::string> resource_names, ExecRecord record,
                ExecScratch &scratch)
{
    auto run = std::make_shared<RecordedRun>();
    run->graph = std::move(graph);
    run->record = std::move(record);
    run->path = extractCriticalPath(*run->graph, run->record,
                                    std::move(resource_names), &scratch);
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
    if (!path.entries.empty())
        tracer.bindTasks(path.tasks);
    for (const CritEntry &entry : path.entries) {
        tracer.recordTask(static_cast<std::uint32_t>(entry.task),
                          entry.start, entry.start + entry.duration, lane);
    }
    return lane;
}

} // namespace lergan
