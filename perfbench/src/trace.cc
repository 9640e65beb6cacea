#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

namespace icpbench
{

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
SpanRecorder::beginOp(const std::string &name)
{
    Span s;
    s.name = name;
    s.startNs = nowNs();
    s.op = nextOp_++;
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size() - 1);
    open_.push_back(index);
    return index;
}

int
SpanRecorder::begin(const std::string &name)
{
    if (open_.empty())
        return beginOp(name);
    Span s;
    s.name = name;
    s.parent = open_.back();
    s.op = spans_[static_cast<std::size_t>(s.parent)].op;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size() - 1);
    open_.push_back(index);
    return index;
}

void
SpanRecorder::end(int index)
{
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

void
SpanRecorder::merge(const std::vector<Span> &other)
{
    const int base = static_cast<int>(spans_.size());
    const std::uint64_t op_base = nextOp_;
    std::uint64_t max_op = 0;
    for (Span s : other) {
        if (s.parent >= 0)
            s.parent += base;
        max_op = std::max(max_op, s.op + 1);
        s.op += op_base;
        spans_.push_back(std::move(s));
    }
    nextOp_ += max_op;
}

double
SpanRecorder::coverage() const
{
    double roots = 0.0, top = 0.0;
    for (const Span &s : spans_) {
        const double d = static_cast<double>(s.endNs - s.startNs);
        if (s.parent < 0)
            roots += d;
        else if (spans_[static_cast<std::size_t>(s.parent)].parent < 0)
            top += d;
    }
    return roots > 0.0 ? top / roots : 0.0;
}

std::string
SpanRecorder::selfTimeJson() const
{
    struct Agg
    {
        std::size_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    // Children never overlap each other (one thread per recorder), so
    // a span's self time is its duration minus its children's.
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_ms[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.endNs - s.startNs) / 1e6;
    std::map<std::string, Agg> agg;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double d = static_cast<double>(s.endNs - s.startNs) / 1e6;
        Agg &a = agg[s.parent < 0 ? "op:" + s.name : s.name];
        ++a.count;
        a.totalMs += d;
        a.selfMs += d - child_ms[i];
    }
    std::ostringstream out;
    out << "{";
    bool first = true;
    for (const auto &[name, a] : agg) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "\"count\": %zu, \"total_ms\": %.6f, "
                      "\"self_ms\": %.6f",
                      a.count, a.totalMs, a.selfMs);
        out << (first ? "\n    " : ",\n    ") << "\"" << name
            << "\": {" << buf << "}";
        first = false;
    }
    out << "\n  }";
    return out.str();
}

std::string
SpanRecorder::chromeTraceJson() const
{
    std::ostringstream out;
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "\"ts\": %.3f, \"dur\": %.3f",
                      static_cast<double>(s.startNs) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
            << "\", \"ph\": \"X\", " << buf
            << ", \"pid\": 1, \"tid\": 1, \"args\": {\"op\": " << s.op
            << ", \"parent\": " << s.parent << "}}";
    }
    out << "\n]}\n";
    return out.str();
}

std::string
SpanRecorder::encode() const
{
    std::ostringstream out;
    for (const Span &s : spans_)
        out << "span " << s.name << " " << s.startNs << " " << s.endNs
            << " " << s.parent << " " << s.op << "\n";
    return out.str();
}

std::vector<SpanRecorder::Span>
SpanRecorder::decode(const std::string &text)
{
    std::vector<Span> spans;
    std::istringstream in(text);
    std::string tag;
    while (in >> tag) {
        if (tag != "span") {
            std::string rest;
            std::getline(in, rest);
            continue;
        }
        Span s;
        in >> s.name >> s.startNs >> s.endNs >> s.parent >> s.op;
        spans.push_back(std::move(s));
    }
    return spans;
}

bool
writeTraceFile(const std::string &path, const SpanRecorder &rec)
{
    std::ofstream out(path, std::ios::trunc);
    out << rec.chromeTraceJson();
    return static_cast<bool>(out);
}

} // namespace icpbench
