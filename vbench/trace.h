/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the library's public functions; nothing inside src/ is
 * instrumented.  Spans nest strictly (one recording thread), so a
 * span's self time is its duration minus the durations of its direct
 * children.  The recorder keeps everything in memory and writes
 * Chrome trace-event JSON once, at the end of the run.
 */

#ifndef VBENCH_TRACE_H
#define VBENCH_TRACE_H

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace vbench {

using Clock = std::chrono::steady_clock;

/** Microseconds since @p origin. */
inline double
microsSince(Clock::time_point origin)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - origin)
        .count();
}

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0;
        double endUs = 0;
        int parent = -1;
        double childUs = 0; //!< time covered by direct children
        std::string args;   //!< JSON object members, without braces
    };

    Tracer(bool enabled, std::string workload, Clock::time_point origin)
        : enabled_(enabled), workload_(std::move(workload)),
          origin_(origin)
    {
    }

    /** Switch recording on or off; only between top-level spans. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its id (-1 when tracing is off). */
    int
    begin(const std::string &name)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = name;
        s.parent = open_.empty() ? -1 : open_.back();
        s.startUs = microsSince(origin_);
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    /** Close the innermost span @p id, attaching @p args. */
    void
    end(int id, std::string args = {})
    {
        if (!enabled_ || id < 0)
            return;
        Span &s = spans_[id];
        s.endUs = microsSince(origin_);
        s.args = std::move(args);
        open_.pop_back();
        if (s.parent >= 0)
            spans_[s.parent].childUs += s.endUs - s.startUs;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of self time (microseconds) by span name, over spans
     *  that started at or after @p since_us. */
    std::map<std::string, double>
    selfTimeByName(double since_us = 0) const
    {
        std::map<std::string, double> out;
        for (const Span &s : spans_) {
            if (s.startUs >= since_us)
                out[s.name] += s.endUs - s.startUs - s.childUs;
        }
        return out;
    }

    /** Write every span as a Chrome trace-event "X" event. */
    bool
    writeChromeJson(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                         "\"args\":{\"id\":%zu,\"parent\":%d,"
                         "\"self_us\":%.3f%s%s}}\n",
                         i == 0 ? "" : ",", s.name.c_str(),
                         workload_.c_str(), s.startUs, s.endUs - s.startUs,
                         i, s.parent, s.endUs - s.startUs - s.childUs,
                         s.args.empty() ? "" : ",", s.args.c_str());
        }
        std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
        return std::fclose(f) == 0;
    }

  private:
    bool enabled_;
    std::string workload_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_, std::move(args_)); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void setArgs(std::string args) { args_ = std::move(args); }

  private:
    Tracer &t_;
    int id_;
    std::string args_;
};

} // namespace vbench

#endif // VBENCH_TRACE_H
