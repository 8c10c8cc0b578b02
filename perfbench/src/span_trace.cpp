#include "span_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench
{

SpanLog::SpanLog(std::uint32_t tid, std::size_t keep)
    : tid_(tid), keep_(keep)
{
    kept_.reserve(keep);
}

void
SpanLog::open(const char *name, std::uint64_t op, std::uint64_t ts_ns)
{
    if (!enabled_)
        return;
    if (depth_ == kMaxDepth) {
        std::fprintf(stderr, "perfbench: span nesting deeper than %d\n",
                     kMaxDepth);
        std::abort();
    }
    const std::uint32_t parent = depth_ ? stack_[depth_ - 1].id : 0;
    stack_[depth_++] = Frame{name, op, ts_ns, 0, nextId_++, parent};
}

void
SpanLog::close(std::uint64_t ts_ns)
{
    if (!enabled_)
        return;
    if (depth_ == 0) {
        std::fprintf(stderr, "perfbench: span closed twice\n");
        std::abort();
    }
    const Frame f = stack_[--depth_];
    const std::uint64_t dur = ts_ns > f.startNs ? ts_ns - f.startNs : 0;
    if (depth_)
        stack_[depth_ - 1].childNs += dur;

    auto it = std::find_if(totals_.begin(), totals_.end(),
                           [&](const auto &e) { return e.first == f.name; });
    if (it == totals_.end()) {
        totals_.emplace_back(f.name, SpanTotals{});
        it = totals_.end() - 1;
    }
    ++it->second.count;
    it->second.totalNs += dur;
    it->second.selfNs += dur > f.childNs ? dur - f.childNs : 0;

    if (kept_.size() < keep_)
        kept_.push_back(Span{f.name, f.startNs, ts_ns, f.id, f.parent, f.op});
    else
        ++dropped_;
}

std::map<std::string, SpanTotals>
SpanLog::totals() const
{
    std::map<std::string, SpanTotals> out;
    for (const auto &[name, t] : totals_)
        out[name] = t;
    return out;
}

std::string
layerOf(const std::string &span_name)
{
    const auto dot = span_name.rfind('.');
    return dot == std::string::npos ? span_name : span_name.substr(0, dot);
}

namespace
{

std::map<std::string, SpanTotals>
mergedTotals(const std::vector<const SpanLog *> &logs)
{
    std::map<std::string, SpanTotals> all;
    for (const SpanLog *log : logs) {
        for (const auto &[name, t] : log->totals()) {
            SpanTotals &o = all[name];
            o.count += t.count;
            o.totalNs += t.totalNs;
            o.selfNs += t.selfNs;
        }
    }
    return all;
}

} // namespace

std::map<std::string, std::uint64_t>
layerSelfNs(const std::vector<const SpanLog *> &logs)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, t] : mergedTotals(logs))
        out[layerOf(name)] += t.selfNs;
    return out;
}

std::vector<std::string>
selfTimeTable(const std::vector<const SpanLog *> &logs, std::uint64_t ops)
{
    const auto all = mergedTotals(logs);
    std::uint64_t grand = 0;
    for (const auto &[name, t] : all)
        grand += t.selfNs;

    std::vector<std::string> lines;
    char buf[200];
    std::snprintf(buf, sizeof buf, "%-40s %10s %12s %12s %7s", "span",
                  "count", "total_ms", "self_ms", "self%");
    lines.push_back(buf);
    for (const auto &[name, t] : all) {
        std::snprintf(buf, sizeof buf, "%-40s %10llu %12.3f %12.3f %6.1f%%",
                      name.c_str(), static_cast<unsigned long long>(t.count),
                      t.totalNs / 1e6, t.selfNs / 1e6,
                      grand ? 100.0 * t.selfNs / grand : 0.0);
        lines.push_back(buf);
    }
    std::snprintf(buf, sizeof buf, "%-40s %10s %12s %12s %7s", "layer",
                  "ops", "self_us/op", "self_ms", "self%");
    lines.push_back(buf);
    for (const auto &[layer, self] : layerSelfNs(logs)) {
        std::snprintf(buf, sizeof buf, "%-40s %10llu %12.3f %12.3f %6.1f%%",
                      layer.c_str(), static_cast<unsigned long long>(ops),
                      ops ? self / 1e3 / static_cast<double>(ops) : 0.0,
                      self / 1e6, grand ? 100.0 * self / grand : 0.0);
        lines.push_back(buf);
    }
    return lines;
}

std::string
chromeTraceJson(const std::vector<const SpanLog *> &logs,
                const std::string &other_data)
{
    std::uint64_t t0 = UINT64_MAX;
    for (const SpanLog *log : logs)
        for (const Span &s : log->kept())
            t0 = std::min(t0, s.startNs);

    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    char buf[320];
    for (const SpanLog *log : logs) {
        for (const Span &s : log->kept()) {
            const std::uint64_t ts = s.startNs - t0;
            const std::uint64_t dur = s.endNs - s.startNs;
            std::snprintf(
                buf, sizeof buf,
                "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                "\"tid\":%u,\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,"
                "\"args\":{\"op\":%llu,\"id\":%u,\"parent\":%u}}",
                first ? "" : ",\n", s.name, layerOf(s.name).c_str(),
                log->tid(), static_cast<unsigned long long>(ts / 1000),
                static_cast<unsigned long long>(ts % 1000),
                static_cast<unsigned long long>(dur / 1000),
                static_cast<unsigned long long>(dur % 1000),
                static_cast<unsigned long long>(s.op), s.id, s.parent);
            out += buf;
            first = false;
        }
    }
    out += "\n],\"displayTimeUnit\":\"ns\",\"otherData\":";
    out += other_data.empty() ? "{}" : other_data;
    out += "}\n";
    return out;
}

void
reportTraced(Result &res, const std::vector<const SpanLog *> &logs,
             const std::vector<Round> &rounds,
             const std::vector<double> &probe_us, const RunArgs &args)
{
    std::uint64_t tracedOps = 0;
    for (const Round &r : rounds)
        tracedOps += r.traced ? r.ops : 0;
    const auto self = layerSelfNs(logs);
    for (const char *layer :
         {"core", "runtime.barrier", "runtime.lock", "bench"}) {
        const auto it = self.find(layer);
        const double v = it == self.end() || !tracedOps
                             ? 0.0
                             : it->second / 1e3 / static_cast<double>(tracedOps);
        res.add(std::string(layer) + ".self_us_per_op", v, "us");
    }
    res.add("bench.host_probe_us", median(probe_us), "us");
    // Compared over the slow rounds of each kind, the statistic the
    // end-to-end ops_per_s uses, so that a change of host speed mode
    // reads as little as possible as tracing cost.
    const double untraced = opsPerSecond(slowRounds(rounds, false));
    const double traced = opsPerSecond(slowRounds(rounds, true));
    res.add("bench.trace_overhead_frac",
            traced > 0 ? untraced / traced - 1.0 : 0.0, "frac");
    // End-to-end op latency of the untraced rounds.  It swings with the
    // host's speed state, so it is reported here, without a bound.
    for (int q = 0; q < 3; ++q) {
        std::string how;
        const double v = opLatencyUs(rounds, false, q, &how);
        const std::string name =
            "e2e.op_us_p" +
            std::to_string(std::lround(kRoundQuantiles[q] * 100));
        res.add(name, v, "us");
        res.notes.push_back(name + ": " + how);
    }

    for (std::string &line : selfTimeTable(logs, tracedOps))
        res.notes.push_back(std::move(line));
    if (!args.traceOut.empty()) {
        std::uint64_t dropped = 0;
        for (const SpanLog *log : logs)
            dropped += log->dropped();
        const std::string other =
            "{\"workload\":\"" + jsonEscape(args.workload) +
            "\",\"seed\":" + std::to_string(args.seed) +
            ",\"dropped_spans\":" + std::to_string(dropped) + "}";
        std::ofstream out(args.traceOut);
        out << chromeTraceJson(logs, other);
        if (!out)
            res.notes.push_back("could not write " + args.traceOut);
        else
            res.notes.push_back("chrome trace: " + args.traceOut);
    }
}

} // namespace perfbench
