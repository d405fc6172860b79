#include "spans.hpp"

#include <cstdio>
#include <ctime>

namespace perfbench {

int64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int
Tracer::open(const std::string &name, const std::string &category)
{
    SpanEvent event;
    event.name = name;
    event.category = category;
    event.id = static_cast<int>(events_.size());
    event.parent = stack_.empty() ? -1 : events_[stack_.back()].id;
    event.startNs = nowNs();
    events_.push_back(std::move(event));
    stack_.push_back(static_cast<int>(events_.size()) - 1);
    return stack_.back();
}

void
Tracer::close(int slot)
{
    events_[slot].durNs = nowNs() - events_[slot].startNs;
    stack_.pop_back();
}

double
Tracer::totalMs(const std::string &name) const
{
    int64_t ns = 0;
    for (const SpanEvent &event : events_) {
        if (event.name == name)
            ns += event.durNs;
    }
    return static_cast<double>(ns) / 1e6;
}

std::vector<std::string>
Tracer::overfullSpans() const
{
    std::vector<int64_t> child_ns(events_.size(), 0);
    for (const SpanEvent &event : events_) {
        if (event.parent >= 0)
            child_ns[event.parent] += event.durNs;
    }
    std::vector<std::string> out;
    for (size_t i = 0; i < events_.size(); ++i) {
        if (child_ns[i] > events_[i].durNs)
            out.push_back(events_[i].name);
    }
    return out;
}

namespace {

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

std::string
Tracer::toChromeJson(const std::map<std::string, std::string> &metadata) const
{
    int64_t base = events_.empty() ? 0 : events_.front().startNs;
    std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    bool first = true;
    for (const auto &[key, value] : metadata) {
        out += first ? "" : ",";
        out += "\"" + jsonEscape(key) + "\":\"" + jsonEscape(value) + "\"";
        first = false;
    }
    out += "},\"traceEvents\":[\n";
    char buf[160];
    for (size_t i = 0; i < events_.size(); ++i) {
        const SpanEvent &event = events_[i];
        // Complete ("X") events in microseconds, one benchmark thread.
        std::snprintf(buf, sizeof(buf),
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
                      static_cast<double>(event.startNs - base) / 1e3,
                      static_cast<double>(event.durNs) / 1e3, event.id,
                      event.parent);
        out += "{\"name\":\"" + jsonEscape(event.name) + "\",\"cat\":\"" +
               jsonEscape(event.category) + "\"," + buf;
        out += i + 1 < events_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
}

Span::Span(Tracer &tracer, const std::string &name,
           const std::string &category)
    : tracer_(tracer)
{
    if (tracer_.enabled())
        slot_ = tracer_.open(name, category);
}

Span::~Span()
{
    if (slot_ >= 0)
        tracer_.close(slot_);
}

} // namespace perfbench
