#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench
{

void
Result::fail(const std::string &why)
{
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
}

void
spinUntilNs(std::uint64_t deadline_ns)
{
    while (nowNs() < deadline_ns) {
    }
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
hostProbeUs()
{
    // A dependent multiply-xorshift chain: no memory traffic, no
    // branches the predictor can learn away, ~1e5 serial operations.
    static volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ sink;
    const std::uint64_t t0 = nowNs();
    for (int i = 0; i < 100000; ++i) {
        x ^= x >> 29;
        x *= 0xbf58476d1ce4e5b9ULL;
    }
    const std::uint64_t t1 = nowNs();
    sink = x;
    return static_cast<double>(t1 - t0) / 1e3;
}

double
peakRssMb()
{
    // VmHWM, not getrusage: ru_maxrss survives exec, so it would report
    // the launching process's peak when that was larger.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(f);
    return kib / 1024.0;
}

void
Round::setPercentiles(const std::vector<double> &lat_us)
{
    for (int i = 0; i < 3; ++i)
        pUs[i] = percentile(lat_us, kRoundQuantiles[i]);
}

std::vector<const Round *>
slowRounds(const std::vector<Round> &rounds, bool traced)
{
    const auto rate = [](const Round *r) {
        return static_cast<double>(r->ops) / static_cast<double>(r->ns);
    };
    std::vector<const Round *> out;
    for (int v = 0;; ++v) {
        std::vector<const Round *> mine;
        for (const Round &r : rounds)
            if (r.traced == traced && r.variant == v && r.ns > 0)
                mine.push_back(&r);
        if (mine.empty())
            break;
        std::sort(mine.begin(), mine.end(),
                  [&](const Round *a, const Round *b) {
                      return rate(a) < rate(b);
                  });
        mine.resize((mine.size() + 9) / 10);
        out.insert(out.end(), mine.begin(), mine.end());
    }
    return out;
}

double
opsPerSecond(const std::vector<const Round *> &rounds)
{
    double ops = 0, ns = 0;
    for (const Round *r : rounds) {
        ops += static_cast<double>(r->ops);
        ns += static_cast<double>(r->ns);
    }
    return ns > 0 ? ops / (ns / 1e9) : 0.0;
}

double
opLatencyUs(const std::vector<Round> &rounds, bool traced, int q_index,
            std::string *how)
{
    char buf[200];
    std::vector<double> pooled;
    int variants = 0;
    std::size_t used = 0;
    for (const Round &r : rounds) {
        if (r.traced != traced)
            continue;
        pooled.insert(pooled.end(), r.samplesUs.begin(), r.samplesUs.end());
        variants = std::max(variants, r.variant + 1);
        ++used;
    }
    const long pct = std::lround(kRoundQuantiles[q_index] * 100);
    if (!pooled.empty()) {
        std::snprintf(buf, sizeof buf, "p%ld of %zu ops pooled over %zu rounds",
                      pct, pooled.size(), used);
        *how = buf;
        return percentile(pooled, kRoundQuantiles[q_index]);
    }
    double sum = 0;
    std::uint64_t ops = 0;
    for (int v = 0; v < variants; ++v) {
        std::vector<double> per;
        for (const Round &r : rounds)
            if (r.traced == traced && r.variant == v) {
                per.push_back(r.pUs[q_index]);
                ops += r.ops;
            }
        sum += median(per);
    }
    std::snprintf(buf, sizeof buf,
                  "per policy, median over rounds of the round's p%ld; mean "
                  "of %d policies; %zu rounds, %llu ops",
                  pct, variants, used, static_cast<unsigned long long>(ops));
    *how = buf;
    return variants ? sum / variants : 0.0;
}

void
reportEndToEnd(Result &res, const std::vector<double> &setup_s,
               const std::vector<Round> &rounds)
{
    const std::vector<const Round *> slow = slowRounds(rounds, false);
    res.add("setup_s", median(setup_s), "s");
    res.add("ops_per_s", opsPerSecond(slow), "1/s");
    res.add("peak_rss_mb", peakRssMb(), "MB");

    char buf[200];
    std::uint64_t ops = 0;
    for (const Round *r : slow)
        ops += r->ops;
    std::snprintf(buf, sizeof buf,
                  "ops_per_s: %llu ops over the slowest tenth (%zu) of %zu "
                  "rounds",
                  static_cast<unsigned long long>(ops), slow.size(),
                  rounds.size());
    res.notes.push_back(buf);
    std::snprintf(buf, sizeof buf, "setup_s: median of %zu set-ups",
                  setup_s.size());
    res.notes.push_back(buf);
}

namespace
{

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        const auto e = s.find_last_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
fmtNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
provenanceJson(const std::string &commit, const std::string &source_digest)
{
    std::string out = "{\"nproc\":";
    out += std::to_string(std::thread::hardware_concurrency());
    out += ",\"cpu_model\":\"" + jsonEscape(cpuModel()) + "\"";
    out += ",\"compiler\":\"" + jsonEscape(PERFBENCH_COMPILER) + "\"";
    out += ",\"build_type\":\"" + jsonEscape(PERFBENCH_BUILD_TYPE) + "\"";
    out += ",\"telemetry\":";
    out += ABSYNC_TELEMETRY_ENABLED ? "true" : "false";
    out += ",\"git_commit\":\"" + jsonEscape(commit) + "\"";
    out += ",\"source_digest\":\"" + jsonEscape(source_digest) + "\"}";
    return out;
}

} // namespace perfbench
