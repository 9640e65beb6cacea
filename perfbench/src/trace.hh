/**
 * @file
 * In-memory span recording for the traced run. Spans are recorded by
 * the benchmark's own code around each public call into a layer:
 * name, start, end, parent and operation id. Nothing is recorded
 * when the recorder pointer is null, which is how the timed runs
 * execute the same code untraced.
 */

#ifndef ICPBENCH_TRACE_HH
#define ICPBENCH_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace icpbench
{

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;   ///< index into spans(), -1 for an op root
        std::uint64_t op = 0;
    };

    /** Open an operation root span; its children are top-level. */
    int beginOp(const std::string &name);

    /** Open a span under the innermost open span. */
    int begin(const std::string &name);

    void end(int index);

    /** Append spans recorded elsewhere (a forked child) verbatim,
     *  re-parented under this recorder's indices. */
    void merge(const std::vector<Span> &other);

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of top-level span time over sum of op root time. */
    double coverage() const;

    /** Per-name count, total and self time, as a JSON object. */
    std::string selfTimeJson() const;

    /** Chrome trace-event JSON (opens in Perfetto). */
    std::string chromeTraceJson() const;

    /** One line per span, for passing spans out of a child. */
    std::string encode() const;
    static std::vector<Span> decode(const std::string &text);

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::uint64_t nextOp_ = 0;
};

/** RAII span; a null recorder records nothing. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, const std::string &name, bool op = false)
        : rec_(rec),
          index_(rec ? (op ? rec->beginOp(name) : rec->begin(name)) : -1)
    {
    }

    ~SpanScope()
    {
        if (rec_)
            rec_->end(index_);
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec_;
    int index_;
};

/** Write @p rec's spans as Chrome trace-event JSON to @p path. */
bool writeTraceFile(const std::string &path, const SpanRecorder &rec);

} // namespace icpbench

#endif // ICPBENCH_TRACE_HH
