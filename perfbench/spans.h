/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call into a layer's public function, recorded by the
 * benchmark around the call site (nothing inside the library is
 * instrumented). Spans nest through an explicit stack, every span of
 * one operation carries that operation's id, and a layer's self time is
 * its span's duration minus the durations of its direct children. The
 * spans stay in memory until the run ends; writeChromeTrace() then
 * renders them through obs::Trace.
 *
 * A disabled recorder records nothing: SpanScope then costs one branch,
 * which is what lets the traced run measure its own overhead against
 * the same code path with recording off.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string layer; //!< "dsl.parse", "core.compile", ... or a root kind
    int parent = -1;   //!< index of the enclosing span, -1 for a root
    uint64_t op = 0;   //!< operation id shared by all spans of one op
    int64_t startNs = 0;
    int64_t durNs = 0;
};

/** Per-layer totals derived from the recorded spans. */
struct LayerTotals
{
    uint64_t calls = 0;
    int64_t selfNs = 0;
    int64_t totalNs = 0;
};

class SpanRecorder
{
  public:
    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one; returns its index. */
    int
    open(std::string layer, uint64_t op)
    {
        int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({std::move(layer), parent, op, nowNs(), 0});
        stack_.push_back(int(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int idx)
    {
        spans_[size_t(idx)].durNs = nowNs() - spans_[size_t(idx)].startNs;
        stack_.pop_back();
    }

    /** Record a finished child of `parent` whose duration was measured
     * elsewhere (a compiler phase from Compilation::phaseTimes, or a
     * re-run probe). */
    int
    addChild(int parent, std::string layer, int64_t startNs, int64_t durNs)
    {
        spans_.push_back(
            {std::move(layer), parent, spans_[size_t(parent)].op, startNs,
             durNs});
        return int(spans_.size()) - 1;
    }

    Span &at(int idx) { return spans_[size_t(idx)]; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span: duration minus direct children. */
    std::vector<int64_t>
    selfTimes() const
    {
        std::vector<int64_t> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].durNs;
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[size_t(s.parent)] -= s.durNs;
        return self;
    }

    /** Root kind ("request", "check", "setup") each span belongs to. */
    std::string
    rootOf(size_t idx) const
    {
        while (spans_[idx].parent >= 0)
            idx = size_t(spans_[idx].parent);
        return spans_[idx].layer;
    }

    /** Totals per layer, over spans under roots of the given kind. */
    std::map<std::string, LayerTotals>
    totals(const std::string &rootKind) const
    {
        std::vector<int64_t> self = selfTimes();
        std::map<std::string, LayerTotals> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            if (rootOf(i) != rootKind)
                continue;
            LayerTotals &t = out[spans_[i].layer];
            ++t.calls;
            t.selfNs += self[i];
            t.totalNs += spans_[i].durNs;
        }
        return out;
    }

    /** Chrome trace: one process track per root kind, one thread track
     * per operation id. */
    void
    writeChromeTrace(const std::string &path) const
    {
        anc::obs::Trace trace;
        std::map<std::string, int64_t> pids;
        int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
        for (size_t i = 0; i < spans_.size(); ++i) {
            std::string root = rootOf(i);
            auto it = pids.find(root);
            if (it == pids.end())
                it = pids.emplace(root, trace.process(root)).first;
            anc::obs::TraceEvent e;
            e.name = spans_[i].layer;
            e.pid = it->second;
            e.tid = int64_t(spans_[i].op);
            e.ts = double(spans_[i].startNs - t0) / 1e3;
            e.dur = double(spans_[i].durNs) / 1e3;
            trace.add(std::move(e));
        }
        trace.writeFile(path);
    }

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span around one call; a no-op when the recorder is disabled. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, const char *layer, uint64_t op)
        : rec_(rec.enabled() ? &rec : nullptr)
    {
        if (rec_)
            idx_ = rec_->open(layer, op);
    }
    ~SpanScope()
    {
        if (rec_)
            rec_->close(idx_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Index of the open span (-1 when disabled). */
    int index() const { return idx_; }
    /** Rename the span before it closes (e.g. once the simulator
     * reported which path it took). */
    void
    rename(const char *layer)
    {
        if (rec_)
            rec_->at(idx_).layer = layer;
    }

  private:
    SpanRecorder *rec_;
    int idx_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
