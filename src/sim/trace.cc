#include "sim/trace.hh"

#include <algorithm>
#include <iomanip>

#include "common/json.hh"
#include "common/logging.hh"

namespace lergan {

void
Tracer::bindTasks(std::shared_ptr<const TaskIdentity> tasks)
{
    if (tasks == tasks_)
        return;
    LERGAN_ASSERT(events_.empty(),
                  "tracer already holds task events of another graph");
    tasks_ = std::move(tasks);
}

TrackId
Tracer::track(const std::string &name)
{
    const auto it = std::find(tracks_.begin(), tracks_.end(), name);
    if (it != tracks_.end())
        return static_cast<TrackId>(it - tracks_.begin());
    tracks_.push_back(name);
    return static_cast<TrackId>(tracks_.size() - 1);
}

void
Tracer::reserve(std::size_t events, std::size_t samples)
{
    events_.reserve(events_.size() + events);
    counters_.reserve(counters_.size() + samples);
}

void
Tracer::clear()
{
    events_.clear();
    counters_.clear();
    tasks_.reset();
}

void
Tracer::exportChromeTrace(std::ostream &os,
                          const std::vector<std::string> &lane_names,
                          const std::vector<SpanEvent> *host_spans) const
{
    JsonWriter json(os);
    json.beginObject();
    json.key("traceEvents").beginArray();
    bool any_unlaned = false;
    for (const TraceEvent &event : events_) {
        const std::uint64_t lane =
            event.lane == SIZE_MAX ? 0 : event.lane + 1;
        any_unlaned = any_unlaned || event.lane == SIZE_MAX;
        json.beginObject();
        json.key("name").value(label(event));
        json.key("ph").value("X");
        json.key("ts").value(static_cast<double>(event.start) * 1e-6);
        json.key("dur").value(
            static_cast<double>(event.end - event.start) * 1e-6);
        json.key("pid").value(1);
        json.key("tid").value(lane);
        json.endObject();
    }
    for (const CounterSample &sample : counters_) {
        json.beginObject();
        json.key("name").value(trackName(sample.track));
        json.key("ph").value("C");
        json.key("ts").value(static_cast<double>(sample.time) * 1e-6);
        json.key("pid").value(1);
        json.key("args").beginObject();
        json.key("value").value(sample.value);
        json.endObject();
        json.endObject();
    }
    // Tasks without a resource share tid 0; give that track a name so
    // the viewer doesn't show a bare "Thread 0".
    if (any_unlaned) {
        json.beginObject();
        json.key("name").value("thread_name");
        json.key("ph").value("M");
        json.key("pid").value(1);
        json.key("tid").value(0);
        json.key("args").beginObject();
        json.key("name").value("(no resource)");
        json.endObject();
        json.endObject();
    }
    // Name the lanes after their resources.
    for (std::size_t lane = 0; lane < lane_names.size(); ++lane) {
        json.beginObject();
        json.key("name").value("thread_name");
        json.key("ph").value("M");
        json.key("pid").value(1);
        json.key("tid").value(static_cast<std::uint64_t>(lane + 1));
        json.key("args").beginObject();
        json.key("name").value(lane_names[lane]);
        json.endObject();
        json.endObject();
    }
    // Flight-recorder spans ride in a second process: host wall-clock
    // slices (trace-epoch microseconds) next to the simulated timeline.
    // Nesting falls out of the "X" format — the viewer stacks slices
    // whose intervals contain each other on the same tid.
    if (host_spans && !host_spans->empty()) {
        bool any_main = false;
        for (const SpanEvent &event : *host_spans) {
            const bool main = event.lane == SpanEvent::kMainLane;
            any_main = any_main || main;
            json.beginObject();
            json.key("name").value(event.name);
            json.key("ph").value("X");
            json.key("ts").value(
                static_cast<double>(event.beginNs) * 1e-3);
            json.key("dur").value(
                static_cast<double>(event.endNs - event.beginNs) *
                1e-3);
            json.key("pid").value(2);
            json.key("tid").value(
                main ? 0 : static_cast<std::uint64_t>(event.lane) + 1);
            json.key("args").beginObject();
            json.key("trace").value(event.trace);
            json.key("span").value(event.span);
            for (std::uint32_t a = 0; a < event.attrCount; ++a) {
                const SpanAttr &attr = event.attrs[a];
                switch (attr.kind) {
                case SpanAttr::Kind::Bool:
                    json.key(attr.key).value(attr.i != 0);
                    break;
                case SpanAttr::Kind::Int:
                    json.key(attr.key).value(
                        static_cast<double>(attr.i));
                    break;
                case SpanAttr::Kind::Float:
                    json.key(attr.key).value(attr.f);
                    break;
                case SpanAttr::Kind::Text:
                    json.key(attr.key).value(attr.text);
                    break;
                case SpanAttr::Kind::None:
                    break;
                }
            }
            json.endObject();
            json.endObject();
        }
        json.beginObject();
        json.key("name").value("process_name");
        json.key("ph").value("M");
        json.key("pid").value(2);
        json.key("args").beginObject();
        json.key("name").value("host spans");
        json.endObject();
        json.endObject();
        if (any_main) {
            json.beginObject();
            json.key("name").value("thread_name");
            json.key("ph").value("M");
            json.key("pid").value(2);
            json.key("tid").value(0);
            json.key("args").beginObject();
            json.key("name").value("(main thread)");
            json.endObject();
            json.endObject();
        }
    }
    json.endArray();
    json.endObject();
    os << '\n';
}

void
Tracer::printTimeline(std::ostream &os, std::size_t limit) const
{
    std::vector<const TraceEvent *> sorted;
    sorted.reserve(events_.size());
    for (const TraceEvent &event : events_)
        sorted.push_back(&event);
    std::sort(sorted.begin(), sorted.end(),
              [](const TraceEvent *a, const TraceEvent *b) {
                  return a->start < b->start;
              });
    const std::size_t shown = std::min(limit, sorted.size());
    for (std::size_t i = 0; i < shown; ++i) {
        const TraceEvent &e = *sorted[i];
        os << std::fixed << std::setprecision(3) << std::setw(12)
           << psToNs(e.start) / 1e3 << " us  +" << std::setw(10)
           << psToNs(e.end - e.start) / 1e3 << " us  " << label(e)
           << '\n';
    }
    if (sorted.size() > shown)
        os << "... (" << sorted.size() - shown << " more events)\n";
}

} // namespace lergan
