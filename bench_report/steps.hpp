#pragma once

/// \file steps.hpp
/// The closed-loop step machinery shared by the SPMD workloads: a run's
/// accumulated measurements, one runtime's session, and the step loop
/// that issues a traffic pattern on both localities between barriers.

#include "report.hpp"

#include <coal/runtime/runtime.hpp>
#include <coal/threading/future.hpp>

#include <array>
#include <functional>

namespace bench_report {

struct options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    std::string sock_dir = ".";
    std::string trace_dir = ".";
};

struct check_result
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/// Everything one invocation measures, pooled over its runtimes.
struct report
{
    std::vector<double> setup_s, ctor_ms, warmup_ms;
    std::vector<double> step_ms, step_ms_traced;
    std::vector<double> lat_us, lat_us_traced;
    std::vector<double> put_ns, put_to_exec_us, exec_to_ready_us, barrier_us;
    double step_wall_s = 0.0;           ///< Σ measured step durations
    std::uint64_t step_requests = 0;    ///< requests those steps completed
    double useful_bytes = 0.0;          ///< application payload per request
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t measured_steps = 0;
    /// Sizes of step_ms and lat_us when each runtime ended, so statistics
    /// can be taken per runtime.
    std::vector<std::size_t> step_marks, lat_marks;
    /// Per-layer values, one entry per runtime (trace mode only).
    std::map<std::string, std::vector<double>> layer;
    std::vector<check_result> checks;
    std::map<std::string, double> diag;
    std::vector<span_event> events;

    /// Keeps the Chrome trace to a few MB however long the run.
    void add_spans(std::vector<span_event> const& spans)
    {
        constexpr std::size_t max_events = 60000;
        for (auto const& e : spans)
        {
            if (events.size() >= max_events)
                return;
            events.push_back(e);
        }
    }

    void check(std::string name, bool ok, std::string detail)
    {
        checks.push_back({std::move(name), ok, std::move(detail)});
    }
};

/// Reads a fixed set of runtime counters over the measured window:
/// begin() re-baselines them (reset-on-read), read() returns the values
/// accumulated since.  Gauges ignore the reset and read absolute.
class counter_probe
{
public:
    void begin(coal::runtime& rt, std::vector<std::string> names)
    {
        names_ = std::move(names);
        for (auto const& n : names_)
            (void) rt.counters().query(n, true);
    }

    [[nodiscard]] std::map<std::string, double> read(coal::runtime& rt) const
    {
        std::map<std::string, double> out;
        for (auto const& n : names_)
            out[n] = rt.counters().query(n).value;
        return out;
    }

private:
    std::vector<std::string> names_;
};

/// One runtime's life inside a run.
struct session
{
    session(report& r, options const& o, std::vector<std::string> counters)
      : rep(r)
      , opt(o)
      , layer_counters(std::move(counters))
    {
    }

    report& rep;
    options const& opt;
    std::vector<std::string> layer_counters;    ///< read when tracing
    coal::runtime* rt = nullptr;
    std::int64_t t_begin = 0;
    std::int64_t t_ctor_end = 0;
    std::int64_t measure_begin = 0;
    bool measuring = false;
    counter_probe probe;

    /// Called once, at the first measured step: closes the set-up window
    /// (constructor through warm-up) and, when tracing, starts the
    /// counter window.
    void start_measuring()
    {
        if (measuring)
            return;
        measuring = true;
        std::int64_t const t = now_ns();
        rep.setup_s.push_back(static_cast<double>(t - t_begin) / 1e9);
        rep.warmup_ms.push_back(static_cast<double>(t - t_ctor_end) / 1e6);
        if (opt.trace)
        {
            rep.events.push_back({"runtime.warmup", 0, t_ctor_end, t});
            probe.begin(*rt, layer_counters);
        }
        measure_begin = t;
    }
};

/// The first step of every loop is warm-up and excluded from metrics.
struct step_plan
{
    double budget_s = 1.0;       ///< measured steps run at least this long
    unsigned min_steps = 3;
    bool step_metrics = true;    ///< feeds step_ms / throughput
    bool latency_metrics = true; ///< feeds lat_* and the request spans
};

/// Samples one locality gathers during a step loop (single writer).
struct lane
{
    std::vector<double> step_ms, step_ms_traced;
    std::vector<double> lat_us, lat_us_traced;
    std::vector<double> put_ns, put_to_exec_us, exec_to_ready_us, barrier_us;
    std::uint64_t failed = 0;
    span_log spans;            ///< steps and barriers
    span_log request_spans;    ///< request legs, far more numerous
};

inline void append(std::vector<double>& to, std::vector<double> const& from)
{
    to.insert(to.end(), from.begin(), from.end());
}

/// Latency of one finished request, timed from `start`; when traced, also
/// its three legs (put, put->exec, exec->ready) as samples and spans.
inline void record_request(lane& ln, request_slot const& r,
    std::int64_t start, bool traced, std::uint32_t tid)
{
    double const lat = static_cast<double>(r.done - start) / 1e3;
    (traced ? ln.lat_us_traced : ln.lat_us).push_back(lat);
    std::int64_t const exec = r.exec.load(std::memory_order_relaxed);
    if (!traced || r.put_end == 0 || exec == 0)
        return;
    ln.put_ns.push_back(static_cast<double>(r.put_end - r.put_begin));
    ln.put_to_exec_us.push_back(static_cast<double>(exec - r.put_end) / 1e3);
    ln.exec_to_ready_us.push_back(static_cast<double>(r.done - exec) / 1e3);
    ln.request_spans.add("request.put", tid, r.put_begin, r.put_end);
    ln.request_spans.add("request.put_to_exec", tid, r.put_end, exec);
    ln.request_spans.add("request.exec_to_ready", tid, exec, r.done);
}

/// Fold one lane's samples into the run's report.
inline void merge(report& rep, lane const& ln)
{
    append(rep.step_ms, ln.step_ms);
    append(rep.step_ms_traced, ln.step_ms_traced);
    append(rep.lat_us, ln.lat_us);
    append(rep.lat_us_traced, ln.lat_us_traced);
    append(rep.put_ns, ln.put_ns);
    append(rep.put_to_exec_us, ln.put_to_exec_us);
    append(rep.exec_to_ready_us, ln.exec_to_ready_us);
    append(rep.barrier_us, ln.barrier_us);
    rep.failed += ln.failed;
    rep.add_spans(ln.spans.events);
    rep.add_spans(ln.request_spans.events);
}

/// Closed-loop steps on both localities until the plan's budget is spent.
/// A step is: barrier, start clock, issue + wait, barrier (the step ends
/// when the slower locality is done), verify, barrier.  In trace mode
/// every other measured step is traced, so traced and untraced steps of
/// the same runtime give the tracing overhead.
///
/// Traffic provides slots(), stride() (latency sampling: every
/// stride-th request id, 0 = none), own(me) (the slot range a locality
/// sends), issue(here, slots, traced) and verify(me).
template <typename Traffic>
void run_steps(session& s, Traffic& traffic, step_plan const& plan)
{
    coal::runtime& rt = *s.rt;
    request_table& table = requests();
    std::array<lane, 2> lanes;

    // Written by the leader before a barrier, read by both after it.
    struct
    {
        bool stop = false;
        bool traced = false;
        bool measured = false;
        std::int64_t t0 = 0;
        std::int64_t window_begin = 0;
        std::uint64_t measured_steps = 0;
    } sh;
    auto const budget_ns = static_cast<std::int64_t>(plan.budget_s * 1e9);
    std::size_t const nslots = traffic.slots();

    rt.run_everywhere([&](coal::locality& here) {
        unsigned const me = here.id().value();
        lane& ln = lanes[me];
        bool const leader = me == 0;
        for (std::uint64_t step = 0;; ++step)
        {
            if (leader)
            {
                sh.measured = step != 0;
                if (sh.measured && sh.measured_steps >= plan.min_steps &&
                    now_ns() - sh.window_begin >= budget_ns)
                {
                    sh.stop = true;
                }
                else
                {
                    if (sh.measured && sh.measured_steps == 0)
                    {
                        s.start_measuring();
                        sh.window_begin = now_ns();
                    }
                    sh.traced = sh.measured && s.opt.trace &&
                        sh.measured_steps % 2 == 1;
                    table.reset(nslots);
                    table.stamp_stride.store(
                        sh.traced ? traffic.stride() : 0,
                        std::memory_order_relaxed);
                    s.rep.attempted += nslots;
                }
            }
            rt.barrier();
            if (sh.stop)
                break;
            if (leader)
                sh.t0 = now_ns();
            rt.barrier();

            request_slot* slots = table.slots.load(std::memory_order_acquire);
            traffic.issue(here, slots, sh.traced);
            std::int64_t const b0 = now_ns();
            rt.barrier();
            std::int64_t const b1 = now_ns();

            bool const traced = sh.traced;
            if (leader && sh.measured)
            {
                double const ms = static_cast<double>(b1 - sh.t0) / 1e6;
                if (plan.step_metrics)
                {
                    (traced ? ln.step_ms_traced : ln.step_ms).push_back(ms);
                    s.rep.step_wall_s += ms / 1e3;
                }
                if (traced)
                    ln.spans.add("step", 1, sh.t0, b1);
                ++sh.measured_steps;
            }
            if (traced)
            {
                ln.barrier_us.push_back(static_cast<double>(b1 - b0) / 1e3);
                ln.spans.add("barrier", 1 + me, b0, b1);
            }

            ln.failed += traffic.verify(me);
            auto const [lo, hi] = traffic.own(me);
            for (std::size_t i = lo; i != hi; ++i)
            {
                request_slot const& r = slots[i];
                if (r.execs.load(std::memory_order_relaxed) != 1)
                    ++ln.failed;
                if (sh.measured && plan.latency_metrics &&
                    r.put_begin != 0 && r.done != 0)
                    record_request(ln, r, r.put_begin, traced, 3 + me);
            }
            rt.barrier();
        }
    });

    report& rep = s.rep;
    for (lane const& ln : lanes)
        merge(rep, ln);
    if (plan.step_metrics)
        rep.step_requests += sh.measured_steps * nslots;
    rep.measured_steps += sh.measured_steps;
}

/// Every sender issues `per_sender` requests to its partner (locality
/// id ^ 1) and waits for all of them.  Sampled requests get a put stamp
/// and a continuation that stamps completion; all results are checked
/// after the step's clock has stopped.
template <typename Action>
class burst_traffic
{
public:
    using result_type = typename Action::result_type;
    using future_type = coal::threading::future<result_type>;
    using sender = std::function<future_type(
        coal::locality&, coal::agas::locality_id, std::uint64_t)>;
    using checker = std::function<bool(std::uint64_t, future_type&)>;

    burst_traffic(std::size_t per_sender, unsigned senders,
        std::uint64_t stride, sender send, checker check,
        std::function<void()> before_send = {})
      : per_sender_(per_sender)
      , senders_(senders)
      , stride_(stride)
      , send_(std::move(send))
      , check_(std::move(check))
      , before_send_(std::move(before_send))
    {
    }

    [[nodiscard]] std::size_t slots() const
    {
        return per_sender_ * senders_;
    }

    [[nodiscard]] std::uint64_t stride() const
    {
        return stride_;
    }

    [[nodiscard]] std::pair<std::size_t, std::size_t> own(unsigned me) const
    {
        if (me >= senders_)
            return {0, 0};
        return {me * per_sender_, (me + 1) * per_sender_};
    }

    void issue(coal::locality& here, request_slot* slots, bool traced)
    {
        unsigned const me = here.id().value();
        if (me >= senders_)
            return;
        coal::agas::locality_id const dest{me ^ 1u};
        pending& out = pending_[me];
        out.plain.reserve(per_sender_);
        for (std::size_t i = 0; i != per_sender_; ++i)
        {
            if (before_send_)
                before_send_();
            std::uint64_t const idx = me * per_sender_ + i;
            if (stride_ == 0 || idx % stride_ != 0)
            {
                out.plain.emplace_back(idx, send_(here, dest, idx));
                continue;
            }
            request_slot& s = slots[idx];
            s.put_begin = now_ns();
            future_type f = send_(here, dest, idx);
            if (traced)
                s.put_end = now_ns();
            out.timed.push_back(f.then([&s, this, idx](future_type&& r) {
                s.done = now_ns();
                return check_(idx, r);
            }));
        }
        for (auto& entry : out.plain)
            entry.second.wait();
        for (auto& f : out.timed)
            f.wait();
    }

    std::uint64_t verify(unsigned me)
    {
        if (me >= senders_)
            return 0;
        pending& out = pending_[me];
        std::uint64_t bad = 0;
        for (auto& [idx, f] : out.plain)
            bad += check_(idx, f) ? 0 : 1;
        for (auto& f : out.timed)
            bad += f.get() ? 0 : 1;
        out.plain.clear();
        out.timed.clear();
        return bad;
    }

private:
    struct pending
    {
        std::vector<std::pair<std::uint64_t, future_type>> plain;
        std::vector<coal::threading::future<bool>> timed;
    };

    std::size_t per_sender_;
    unsigned senders_;
    std::uint64_t stride_;
    sender send_;
    checker check_;
    std::function<void()> before_send_;
    std::array<pending, 2> pending_;
};

}    // namespace bench_report
