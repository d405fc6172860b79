/**
 * @file
 * Host-time spans for the benchmark's traced run, written as Chrome
 * trace-event JSON (the format chrome://tracing and Perfetto open).
 * Spans nest by scope on the one benchmark thread; each records its
 * parent's id so a viewer or a script can rebuild the tree.
 */
#ifndef NOL_PERFBENCH_SPANS_HPP
#define NOL_PERFBENCH_SPANS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host clock in nanoseconds (CLOCK_MONOTONIC). */
int64_t nowNs();

/** One closed span. */
struct SpanEvent {
    std::string name;
    std::string category;
    int64_t startNs = 0;
    int64_t durNs = 0;
    int id = 0;
    int parent = -1; ///< -1 for a root span
};

/**
 * In-memory span recorder. Disabled recorders make Span a no-op, so
 * the same code runs with tracing on and off.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    const std::vector<SpanEvent> &events() const { return events_; }

    /** Sum of durations (ms) of every span named @p name. */
    double totalMs(const std::string &name) const;

    /**
     * Names of spans whose direct children last longer in total than
     * the span itself (empty when the tree is consistent).
     */
    std::vector<std::string> overfullSpans() const;

    /** Chrome trace-event JSON; @p metadata lands in "otherData". */
    std::string toChromeJson(
        const std::map<std::string, std::string> &metadata) const;

  private:
    friend class Span;

    int open(const std::string &name, const std::string &category);
    void close(int slot);

    bool enabled_;
    std::vector<SpanEvent> events_;
    std::vector<int> stack_; ///< indices into events_ of open spans
};

/** RAII span: opened on construction, closed on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name,
         const std::string &category = "bench");
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    int slot_ = -1;
};

} // namespace perfbench

#endif // NOL_PERFBENCH_SPANS_HPP
