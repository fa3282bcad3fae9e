#pragma once

/// \file report.hpp
/// Bench-side plumbing for bench_report: statistics, the per-request
/// timestamp table the bench actions write into, span recording for the
/// Chrome trace, and JSON output.  Nothing here reaches inside the
/// runtime; it only wraps calls into its public API.

#include <coal/common/stopwatch.hpp>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace bench_report {

using coal::now_ns;

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (0 for an empty sample).
inline double quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double const pos = q * static_cast<double>(v.size() - 1);
    auto const lo = static_cast<std::size_t>(pos);
    std::size_t const hi = std::min(lo + 1, v.size() - 1);
    double const frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

inline std::uint64_t splitmix(std::uint64_t& x) noexcept
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/// Independent stream derived from the run seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ull);
    return splitmix(x);
}

/// Deterministic payload bytes for request `key` of a run.
inline void fill_payload(
    std::uint64_t seed, std::uint64_t key, std::uint8_t* out, std::size_t n)
{
    std::uint64_t x = derive_seed(seed, key + 1);
    for (std::size_t i = 0; i < n; i += 8)
    {
        std::uint64_t const v = splitmix(x);
        std::memcpy(out + i, &v, std::min<std::size_t>(8, n - i));
    }
}

inline std::vector<std::uint8_t> make_payload(
    std::uint64_t seed, std::uint64_t key, std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    fill_payload(seed, key, out.data(), n);
    return out;
}

// ---- per-request timestamps -----------------------------------------------

/// One request of the current step.  Every field has exactly one writer:
/// the sender stamps put_begin/put_end, the executing locality stamps
/// exec and counts execs, the sender's continuation stamps done.  Readers
/// look only after the step's closing barrier (or completion count).
struct request_slot
{
    std::int64_t put_begin = 0;
    std::int64_t put_end = 0;
    std::int64_t done = 0;
    std::atomic<std::int64_t> exec{0};
    std::atomic<std::uint32_t> execs{0};
};

/// The table the bench actions index by request id.  Reset only while no
/// request is in flight (between steps).
struct request_table
{
    std::unique_ptr<request_slot[]> storage;
    std::size_t capacity = 0;

    std::atomic<request_slot*> slots{nullptr};
    std::atomic<std::size_t> size{0};
    /// Exec stamps are taken for ids divisible by this (0: none), so an
    /// untraced step pays one branch per execution.
    std::atomic<std::uint64_t> stamp_stride{0};
    std::atomic<std::uint64_t> stray{0};      ///< ids outside the table
    std::atomic<std::uint64_t> corrupt{0};    ///< payloads that differ
    std::uint64_t seed = 0;

    request_slot* reset(std::size_t n)
    {
        if (n > capacity)
        {
            storage = std::make_unique<request_slot[]>(n);
            capacity = n;
        }
        for (std::size_t i = 0; i != n; ++i)
        {
            request_slot& s = storage[i];
            s.put_begin = s.put_end = s.done = 0;
            s.exec.store(0, std::memory_order_relaxed);
            s.execs.store(0, std::memory_order_relaxed);
        }
        size.store(n, std::memory_order_release);
        slots.store(storage.get(), std::memory_order_release);
        return storage.get();
    }
};

inline request_table& requests()
{
    static request_table table;
    return table;
}

/// Called first thing by every bench action.
inline void note_exec(std::uint64_t idx)
{
    request_table& t = requests();
    request_slot* slots = t.slots.load(std::memory_order_acquire);
    if (slots == nullptr || idx >= t.size.load(std::memory_order_acquire))
    {
        t.stray.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    request_slot& s = slots[idx];
    std::uint64_t const stride =
        t.stamp_stride.load(std::memory_order_relaxed);
    if (stride != 0 && idx % stride == 0)
        s.exec.store(now_ns(), std::memory_order_relaxed);
    s.execs.fetch_add(1, std::memory_order_relaxed);
}

// ---- spans ----------------------------------------------------------------

/// Chrome trace "complete" event.  tid: 0 main, 1 + locality for the SPMD
/// tasks, 3 + locality for the requests that locality sent.
struct span_event
{
    char const* name;
    std::uint32_t tid;
    std::int64_t begin_ns;
    std::int64_t end_ns;
};

/// Spans of one locality's task; single writer, merged after the loop.
/// Capped so a long run cannot grow the trace without bound.
struct span_log
{
    static constexpr std::size_t cap = 20000;
    std::vector<span_event> events;

    void add(char const* name, std::uint32_t tid, std::int64_t b,
        std::int64_t e)
    {
        if (events.size() < cap)
            events.push_back(span_event{name, tid, b, e});
    }
};

inline bool write_chrome_trace(
    std::string const& path, std::vector<span_event> const& events)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::int64_t origin = events.empty() ? 0 : events.front().begin_ns;
    for (auto const& e : events)
        origin = std::min(origin, e.begin_ns);
    static char const* const threads[] = {"main", "locality#0 task",
        "locality#1 task", "requests from locality#0",
        "requests from locality#1"};
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (std::uint32_t t = 0; t != 5; ++t)
        std::fprintf(f,
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
            "\"args\":{\"name\":\"%s\"}},\n",
            t, threads[t]);
    for (std::size_t i = 0; i != events.size(); ++i)
    {
        auto const& e = events[i];
        std::fprintf(f,
            "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f}%s\n",
            e.name, e.tid, static_cast<double>(e.begin_ns - origin) / 1e3,
            static_cast<double>(e.end_ns - e.begin_ns) / 1e3,
            i + 1 == events.size() ? "" : ",");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

// ---- output ---------------------------------------------------------------

/// Shortest text that reads back as the same double.
inline std::string json_number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    auto const res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

struct metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

inline std::string metrics_json(std::vector<metric> const& ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i != ms.size(); ++i)
    {
        if (i != 0)
            out += ", ";
        out += "\"" + ms[i].name + "\": {\"value\": " +
            json_number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return out + "}";
}

/// Peak resident set of this process so far (VmHWM), MB.
inline double peak_rss_mb()
{
    ::rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}    // namespace bench_report
