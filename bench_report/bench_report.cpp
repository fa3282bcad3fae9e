/// \file bench_report.cpp
/// The repository benchmark: one workload per invocation, driven through
/// the runtime's public API only.
///
///     bench_report workload=<toy|parquet|paced|wire|lossy> seed=<n>
///                  seconds=<s> trace=<0|1> [quick=1] [sock_dir=<dir>]
///                  [trace_dir=<dir>]
///
/// After an unmeasured 2 s pass, each run boots six fresh 2-locality x
/// 1-worker runtimes (one in quick mode, without the pass) and splits
/// `seconds` of measured steps between them.  A runtime's first step is
/// warm-up and closes its set-up time.  The last
/// stdout line is a JSON object: `correct`, `attempted`, `failed` and the
/// end-to-end metrics (trace=0) or the per-layer metrics (trace=1, which
/// also writes `<trace_dir>/<workload>.json` in Chrome trace format).
/// Exit code 0 means every correctness check passed.
///
/// Every workload sends bench actions that carry a request id, so the
/// bench can check that each request executed exactly once and can time
/// sampled requests from put to completion without hooks in the runtime.

#include "layers.hpp"

#include <coal/common/config.hpp>
#include <coal/net/sim_network.hpp>
#include <coal/net/socket_transport.hpp>
#include <coal/parcel/action.hpp>
#include <coal/timing/busy_work.hpp>

#include <chrono>
#include <complex>
#include <filesystem>
#include <mutex>
#include <random>
#include <thread>

namespace bench_report {

std::complex<double> const toy_value{13.3, -23.8};

/// Listing 1's remote call, plus the request id.
std::complex<double> cplx_request(std::uint64_t idx)
{
    note_exec(idx);
    return toy_value;
}

/// The parquet rotation phase's target: per-locality tensor blocks that
/// slabs accumulate into; the sum over all blocks is the checksum.
class tensor_blocks
{
public:
    void configure(std::size_t elements)
    {
        for (auto& b : blocks_)
        {
            std::lock_guard lock(b.mutex);
            b.data.assign(elements, std::complex<double>(0.0, 0.0));
        }
    }

    void accumulate(std::uint32_t dest, std::uint64_t row_offset,
        std::vector<std::complex<double>> const& chunk)
    {
        block& b = blocks_[dest & 1u];
        std::lock_guard lock(b.mutex);
        std::size_t const n = b.data.size();
        if (n == 0)
            return;
        for (std::size_t i = 0; i != chunk.size(); ++i)
            b.data[(row_offset + i) % n] += chunk[i];
    }

    [[nodiscard]] std::complex<double> total()
    {
        std::complex<double> sum{0.0, 0.0};
        for (auto& b : blocks_)
        {
            std::lock_guard lock(b.mutex);
            for (auto const& v : b.data)
                sum += v;
        }
        return sum;
    }

private:
    struct block
    {
        std::mutex mutex;
        std::vector<std::complex<double>> data;
    };
    std::array<block, 2> blocks_;
};

tensor_blocks& tensors()
{
    static tensor_blocks t;
    return t;
}

void slab_request(std::uint64_t idx, std::uint32_t dest,
    std::uint64_t row_offset, std::vector<std::complex<double>> chunk)
{
    note_exec(idx);
    tensors().accumulate(dest, row_offset, chunk);
}

constexpr std::size_t paced_payload_bytes = 64;

void paced_request(std::uint64_t idx, std::vector<std::uint8_t> payload)
{
    note_exec(idx);
    std::array<std::uint8_t, paced_payload_bytes> want{};
    fill_payload(requests().seed, idx, want.data(), want.size());
    if (payload.size() != want.size() ||
        std::memcmp(payload.data(), want.data(), want.size()) != 0)
        requests().corrupt.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint8_t> echo_request(
    std::uint64_t idx, std::vector<std::uint8_t> data)
{
    note_exec(idx);
    return data;
}

}    // namespace bench_report

COAL_PLAIN_ACTION(bench_report::cplx_request, bench_cplx_action);
COAL_PLAIN_ACTION(bench_report::slab_request, bench_slab_action);
COAL_PLAIN_ACTION(bench_report::paced_request, bench_paced_action);
COAL_PLAIN_ACTION(bench_report::echo_request, bench_echo_action);

namespace bench_report {

namespace {

using coal::agas::locality_id;
using coal::threading::future;

unsigned runtimes_per_run(options const& opt)
{
    return opt.quick ? 1 : 6;
}

step_plan default_plan(options const& opt, double budget_s)
{
    step_plan p;
    p.budget_s = budget_s;
    p.min_steps = opt.quick ? 2 : 3;
    return p;
}

coal::runtime_config base_config()
{
    coal::runtime_config cfg;
    cfg.num_localities = 2;
    cfg.workers_per_locality = 1;
    cfg.apply_coalescing_defaults = false;
    cfg.pin_transport = true;
    return cfg;
}

/// Peak RSS of the process when its first runtime (the unmeasured pass,
/// if there is one) ended.
double first_runtime_rss_mb = 0.0;

/// One fresh runtime: construct (timed), run the workload body, close the
/// counter window, and check custody at quiescence.
template <typename Body>
void with_runtime(report& rep, options const& opt,
    coal::runtime_config const& cfg, std::string const& action, Body&& body)
{
    session s{rep, opt, layer_counter_names(action)};
    s.t_begin = now_ns();
    coal::runtime rt(cfg);
    s.rt = &rt;
    s.t_ctor_end = now_ns();
    rep.ctor_ms.push_back(static_cast<double>(s.t_ctor_end - s.t_begin) / 1e6);
    if (opt.trace)
        rep.events.push_back({"runtime.ctor", 0, s.t_begin, s.t_ctor_end});

    std::uint64_t const steps_before = rep.measured_steps;
    body(s);
    if (opt.trace && s.measuring)
        record_layers(s, action, rep.measured_steps - steps_before);

    rt.quiesce();
    auto const net = rt.network().stats();
    bool const balanced =
        net.messages_sent == net.messages_delivered + net.messages_dropped;
    rep.check("transport_balance", balanced,
        "sent " + std::to_string(net.messages_sent) + " delivered " +
            std::to_string(net.messages_delivered) + " dropped " +
            std::to_string(net.messages_dropped));
    rt.stop();
    rep.step_marks.push_back(rep.step_ms.size());
    rep.lat_marks.push_back(rep.lat_us.size());
    // Later runtimes of the process start new threads that get fresh
    // allocator arenas, so the process peak keeps growing with the
    // runtime count; read it once, when the process's first runtime ends.
    if (first_runtime_rss_mb == 0.0)
        first_runtime_rss_mb = peak_rss_mb();
}

// ---- toy and lossy ---------------------------------------------------------

/// A lossy phase ends one retransmit timeout after its last loss, and
/// that timeout (50-200 ms, from the smoothed RTT) dominates a toy-sized
/// phase: its step times fall into modes near 85, 130 and 260 ms, and the
/// median jumps between them from run to run.  At 2.5 toy phases per step
/// the recovery tail is a smaller, steadier share (step median spread
/// 2.5 % over six seeds instead of 33 %).
constexpr std::size_t lossy_phase_requests = 50000;

/// Listing 1: each locality sends 20 000 requests to its partner per
/// phase, coalesced (128, 4000 us).  `lossy` runs the same traffic over
/// a fault-injecting wire with the reliability layer at its defaults.
void run_toy(report& rep, options const& opt, bool lossy)
{
    rep.useful_bytes = sizeof(std::complex<double>);
    unsigned const runs = runtimes_per_run(opt);
    std::uint64_t drops = 0, sent = 0;
    for (unsigned r = 0; r != runs; ++r)
    {
        coal::runtime_config cfg = base_config();
        if (lossy)
        {
            cfg.faults.seed = derive_seed(opt.seed, r);
            cfg.faults.drop_probability = 0.01;
            cfg.faults.duplicate_probability = 0.005;
            cfg.faults.reorder_probability = 0.01;
        }
        with_runtime(rep, opt, cfg, bench_cplx_action::action_name,
            [&](session& s) {
                s.rt->enable_coalescing(
                    bench_cplx_action::action_name, {128, 4000});
                burst_traffic<bench_cplx_action> traffic(
                    lossy ? lossy_phase_requests : 20000, 2, 16,
                    [](coal::locality& here, locality_id dest,
                        std::uint64_t idx) {
                        return here.async<bench_cplx_action>(dest, idx);
                    },
                    [](std::uint64_t, future<std::complex<double>>& f) {
                        return f.get() == toy_value;
                    });
                run_steps(s, traffic, default_plan(opt, opt.seconds / runs));
                auto const net = s.rt->network().stats();
                drops += net.drops_injected;
                sent += net.messages_sent;
            });
    }
    if (lossy)
    {
        double const rate =
            sent == 0 ? 0.0 : static_cast<double>(drops) / static_cast<double>(sent);
        rep.diag["drop_rate"] = rate;
        rep.check("drop_rate", rate >= 0.007 && rate <= 0.013,
            std::to_string(drops) + " of " + std::to_string(sent) +
                " messages dropped");
    }
}

// ---- parquet ---------------------------------------------------------------

/// The parquet rotation phase at Nc = 32 on 2 localities: 8·Nc²/2 slabs of
/// Nc complex doubles per locality per iteration, 1200 flops of modeled
/// contraction before each send, coalesced (4, 5000 us).  Slab values come
/// from the seed; the tensor checksum proves exactly-once accumulation.
constexpr std::uint32_t nc = 32;
constexpr std::size_t slabs_per_sender = 8 * nc * nc / 2;
constexpr std::size_t tensor_elements = std::size_t{nc} * nc * nc / 2;

void run_parquet(report& rep, options const& opt)
{
    std::vector<std::complex<double>> chunk(nc);
    std::uint64_t x = derive_seed(opt.seed, 7);
    std::complex<double> chunk_sum{0.0, 0.0};
    for (auto& c : chunk)
    {
        auto unit = [&x] {
            return static_cast<double>(splitmix(x) >> 11) * 0x1.0p-53 - 0.5;
        };
        double const re = unit();
        c = {re, unit()};
        chunk_sum += c;
    }
    rep.useful_bytes = nc * sizeof(std::complex<double>);

    unsigned const runs = runtimes_per_run(opt);
    double worst = 0.0;
    for (unsigned r = 0; r != runs; ++r)
    {
        with_runtime(rep, opt, base_config(), bench_slab_action::action_name,
            [&](session& s) {
                tensors().configure(tensor_elements);
                s.rt->enable_coalescing(
                    bench_slab_action::action_name, {4, 5000});
                std::uint64_t const attempted_before = rep.attempted;
                burst_traffic<bench_slab_action> traffic(slabs_per_sender, 2, 16,
                    [&chunk](coal::locality& here, locality_id dest,
                        std::uint64_t idx) {
                        std::uint64_t const row_offset =
                            (idx % slabs_per_sender) * nc % tensor_elements;
                        return here.async<bench_slab_action>(
                            dest, idx, dest.value(), row_offset, chunk);
                    },
                    [](std::uint64_t, future<void>& f) {
                        f.get();
                        return true;
                    },
                    [] { (void) coal::timing::spin_flops(1200); });
                run_steps(s, traffic, default_plan(opt, opt.seconds / runs));

                auto const slabs =
                    static_cast<double>(rep.attempted - attempted_before);
                std::complex<double> const expected = chunk_sum * slabs;
                double const err = std::abs(tensors().total() - expected) /
                    std::max(1.0, std::abs(expected));
                worst = std::max(worst, err);
            });
    }
    rep.diag["checksum_error"] = worst;
    rep.check("parquet_checksum", worst < 1e-9,
        "relative error " + json_number(worst));
}

// ---- paced -----------------------------------------------------------------

/// Busy-waits: a sleeping generator wakes hundreds of microseconds late
/// on a loaded host, and arrival gaps average only 100 us anyway.
void spin_until(std::int64_t at)
{
    while (now_ns() < at)
    {
    }
}

/// Open loop: the main thread sends 64-byte requests locality 0 -> 1 with
/// Poisson arrivals at 10 000/s, coalesced (16, 1000 us).  Latency runs
/// from each request's due time to its completion at the sender; a step
/// is a block of 1000 arrivals.  The first block is warm-up.
void run_paced(report& rep, options const& opt)
{
    constexpr double rate_per_s = 10000.0;
    constexpr std::size_t block = 1000;
    rep.useful_bytes = paced_payload_bytes;

    unsigned const runs = runtimes_per_run(opt);
    double const budget = opt.seconds / runs;
    std::vector<double> lateness_us;
    std::vector<double> gaps_us;
    for (unsigned r = 0; r != runs; ++r)
    {
        // Outlives the body: completions still land during quiesce if a
        // request stalled.
        std::atomic<std::size_t> completed{0};
        with_runtime(rep, opt, base_config(), bench_paced_action::action_name,
            [&](session& s) {
                coal::runtime& rt = *s.rt;
                rt.enable_coalescing(
                    bench_paced_action::action_name, {16, 1000});
                auto const blocks = std::max<std::size_t>(
                    opt.quick ? 2 : 3,
                    static_cast<std::size_t>(
                        std::llround(budget * rate_per_s / block)));
                std::size_t const n = (blocks + 1) * block;

                std::mt19937_64 rng(derive_seed(opt.seed, 100 + r));
                std::exponential_distribution<double> gap(rate_per_s / 1e9);
                std::vector<std::int64_t> due(n);
                request_table& table = requests();
                request_slot* slots = table.reset(n);
                coal::locality& src = rt.get_locality(0);
                locality_id const dest{1};
                bool stalled = false;

                auto send_range = [&](std::size_t lo, std::size_t hi,
                                      bool measured) {
                    bool traced = false;
                    std::int64_t at = now_ns() + 1'000'000;
                    for (std::size_t idx = lo; idx != hi; ++idx)
                    {
                        if (measured && (idx - lo) % block == 0)
                        {
                            traced = opt.trace && (idx - lo) / block % 2 == 1;
                            table.stamp_stride.store(traced ? 1 : 0,
                                std::memory_order_relaxed);
                        }
                        at += std::llround(gap(rng));
                        due[idx] = at;
                        spin_until(at);
                        request_slot& sl = slots[idx];
                        sl.put_begin = now_ns();
                        auto f = src.async<bench_paced_action>(dest,
                            std::uint64_t{idx},
                            make_payload(opt.seed, idx, paced_payload_bytes));
                        if (traced)
                            sl.put_end = now_ns();
                        (void) f.then([&sl, &completed](future<void>&& done) {
                            done.get();
                            sl.done = now_ns();
                            completed.fetch_add(1, std::memory_order_release);
                        });
                    }
                    std::int64_t const deadline = now_ns() + 10'000'000'000;
                    while (completed.load(std::memory_order_acquire) < hi)
                    {
                        if (now_ns() > deadline)
                        {
                            stalled = true;
                            return;
                        }
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(50));
                    }
                };

                send_range(0, block, false);
                s.start_measuring();
                if (!stalled)
                    send_range(block, n, true);
                rep.attempted += n;
                if (stalled)
                {
                    rep.failed += n - completed.load();
                    rep.check("paced_completion", false,
                        "requests still outstanding after 10 s");
                    return;
                }

                lane ln;
                std::int64_t last_done = 0;
                for (std::size_t b = 1; b <= blocks; ++b)
                {
                    bool const traced = opt.trace && (b - 1) % 2 == 1;
                    std::int64_t block_done = 0;
                    for (std::size_t idx = b * block; idx != (b + 1) * block;
                         ++idx)
                    {
                        request_slot const& sl = slots[idx];
                        block_done = std::max(block_done, sl.done);
                        record_request(ln, sl, due[idx], traced, 3);
                        lateness_us.push_back(
                            static_cast<double>(sl.put_begin - due[idx]) / 1e3);
                    }
                    double const ms = static_cast<double>(
                                          block_done - due[b * block]) /
                        1e6;
                    (traced ? ln.step_ms_traced : ln.step_ms).push_back(ms);
                    last_done = std::max(last_done, block_done);
                }
                for (std::size_t idx = 0; idx != n; ++idx)
                {
                    if (slots[idx].execs.load(std::memory_order_relaxed) != 1)
                        ++rep.failed;
                }
                merge(rep, ln);
                std::size_t const measured = n - block;
                rep.step_wall_s +=
                    static_cast<double>(last_done - due[block]) / 1e9;
                rep.step_requests += measured;
                rep.measured_steps += blocks;
                gaps_us.push_back(static_cast<double>(
                                      slots[n - 1].put_begin -
                                      slots[block].put_begin) /
                    1e3 / static_cast<double>(measured - 1));

                if (opt.trace)
                {
                    // No SPMD steps here: time idle barrier rounds.
                    std::array<std::vector<double>, 2> rounds;
                    rt.run_everywhere([&](coal::locality& here) {
                        auto& out = rounds[here.id().value()];
                        for (int i = 0; i != 200; ++i)
                        {
                            std::int64_t const b0 = now_ns();
                            rt.barrier();
                            out.push_back(
                                static_cast<double>(now_ns() - b0) / 1e3);
                        }
                    });
                    for (auto const& v : rounds)
                        append(rep.barrier_us, v);
                }
            });
    }
    double const late_p99 = quantile(lateness_us, 0.99);
    double const mean_gap = median(gaps_us);
    rep.diag["generator_lateness_p99_us"] = late_p99;
    rep.diag["mean_gap_us"] = mean_gap;
    rep.check("generator_lateness", late_p99 < 100.0,
        "p99 " + json_number(late_p99) + " us");
    rep.check("arrival_rate", std::abs(mean_gap - 100.0) <= 10.0,
        "mean gap " + json_number(mean_gap) + " us");
}

// ---- wire ------------------------------------------------------------------

/// One request outstanding at a time, locality 0 -> 1.
class pingpong_traffic
{
public:
    explicit pingpong_traffic(
        std::vector<std::vector<std::uint8_t>> const& payloads)
      : payloads_(payloads)
    {
    }

    static constexpr std::size_t per_step = 100;

    [[nodiscard]] std::size_t slots() const
    {
        return per_step;
    }

    [[nodiscard]] std::uint64_t stride() const
    {
        return 1;
    }

    [[nodiscard]] std::pair<std::size_t, std::size_t> own(unsigned me) const
    {
        return me == 0 ? std::pair<std::size_t, std::size_t>{0, per_step} :
                         std::pair<std::size_t, std::size_t>{0, 0};
    }

    void issue(coal::locality& here, request_slot* slots, bool traced)
    {
        if (here.id().value() != 0)
            return;
        for (std::size_t i = 0; i != per_step; ++i)
        {
            auto const& payload = payloads_[i % payloads_.size()];
            request_slot& s = slots[i];
            s.put_begin = now_ns();
            auto f = here.async<bench_echo_action>(
                locality_id{1}, std::uint64_t{i}, payload);
            if (traced)
                s.put_end = now_ns();
            auto const echoed = f.get();
            s.done = now_ns();
            bad_ += echoed == payload ? 0 : 1;
        }
    }

    std::uint64_t verify(unsigned me)
    {
        return me == 0 ? std::exchange(bad_, 0) : 0;
    }

private:
    std::vector<std::vector<std::uint8_t>> const& payloads_;
    std::uint64_t bad_ = 0;
};

constexpr std::size_t wire_burst_bytes = 4096;

coal::net::socket_params uds_params(options const& opt)
{
    coal::net::socket_params p;
    p.kind = coal::net::socket_params::family::uds;
    p.uds_dir = opt.sock_dir;
    return p;
}

/// Real Unix-domain sockets with reliability, flow control and membership
/// at their defaults; echo requests coalesced (16, 1000 us).  Latency
/// comes from a 16-byte ping-pong; steps and throughput from bursts of
/// 2000 x 4 KiB echoes.
void run_wire(report& rep, options const& opt)
{
    constexpr std::size_t pool = 64;
    std::vector<std::vector<std::uint8_t>> small, big;
    for (std::size_t i = 0; i != pool; ++i)
    {
        small.push_back(make_payload(opt.seed, i, 16));
        big.push_back(make_payload(opt.seed, pool + i, wire_burst_bytes));
    }
    rep.useful_bytes = 2.0 * wire_burst_bytes;

    unsigned const runs = runtimes_per_run(opt);
    double const budget = opt.seconds / runs;
    for (unsigned r = 0; r != runs; ++r)
    {
        coal::runtime_config cfg = base_config();
        cfg.transport = "uds";
        cfg.socket = uds_params(opt);
        cfg.reliability.enabled = true;
        cfg.flow.enabled = true;
        cfg.membership.enabled = true;
        with_runtime(rep, opt, cfg, bench_echo_action::action_name,
            [&](session& s) {
                s.rt->enable_coalescing(
                    bench_echo_action::action_name, {16, 1000});

                pingpong_traffic pingpong(small);
                step_plan pp = default_plan(opt, 0.4 * budget);
                pp.step_metrics = false;
                run_steps(s, pingpong, pp);

                burst_traffic<bench_echo_action> burst(2000, 1, 0,
                    [&big](coal::locality& here, locality_id dest,
                        std::uint64_t idx) {
                        return here.async<bench_echo_action>(
                            dest, idx, big[idx % pool]);
                    },
                    [&big](std::uint64_t idx,
                        future<std::vector<std::uint8_t>>& f) {
                        return f.get() == big[idx % pool];
                    });
                step_plan bursts = default_plan(opt, 0.6 * budget);
                bursts.latency_metrics = false;
                run_steps(s, burst, bursts);
            });
    }
}

// ---- per-layer completion and output ---------------------------------------

/// A request parcel shaped like the workload's messages, for the codec
/// timing.
coal::parcel::parcel codec_proto(std::string const& workload)
{
    coal::parcel::parcel p;
    p.source = 0;
    p.dest = 1;
    p.continuation = 1;
    std::uint64_t const idx = 0;
    if (workload == "parquet")
    {
        p.action = bench_slab_action::id();
        p.arguments = bench_slab_action::make_arguments(idx, std::uint32_t{1},
            std::uint64_t{0}, std::vector<std::complex<double>>(32));
    }
    else if (workload == "paced")
    {
        p.action = bench_paced_action::id();
        p.arguments = bench_paced_action::make_arguments(
            idx, std::vector<std::uint8_t>(paced_payload_bytes));
    }
    else if (workload == "wire")
    {
        p.action = bench_echo_action::id();
        p.arguments = bench_echo_action::make_arguments(
            idx, std::vector<std::uint8_t>(wire_burst_bytes));
    }
    else
    {
        p.action = bench_cplx_action::id();
        p.arguments = bench_cplx_action::make_arguments(idx);
    }
    return p;
}

double transport_rtt_us(options const& opt)
{
    constexpr int rounds = 500;
    if (opt.workload == "wire")
    {
        coal::net::socket_transport net(uds_params(opt), 2);
        return raw_rtt_us(net, rounds);
    }
    coal::net::sim_network net(2, coal::net::cost_model{});
    return raw_rtt_us(net, rounds);
}

std::vector<metric> layer_metrics(report& rep, options const& opt)
{
    double const ppm = median(rep.layer["core.parcels_per_message"]);
    auto const [encode_ns, decode_ns] = time_codec(codec_proto(opt.workload),
        static_cast<std::size_t>(std::max(1.0, std::round(ppm))));
    bool const latency_based = opt.workload == "paced";
    double const traced = latency_based ? median(rep.lat_us_traced) :
                                          median(rep.step_ms_traced);
    double const untraced =
        latency_based ? median(rep.lat_us) : median(rep.step_ms);

    std::map<std::string, double> run_level{
        {"runtime.ctor_ms", median(rep.ctor_ms)},
        {"runtime.warmup_ms", median(rep.warmup_ms)},
        {"runtime.barrier_us_p50", median(rep.barrier_us)},
        {"core.put_ns_p50", median(rep.put_ns)},
        {"core.put_ns_p99", quantile(rep.put_ns, 0.99)},
        {"serialization.encode_ns_per_parcel", encode_ns},
        {"serialization.decode_ns_per_parcel", decode_ns},
        {"net.raw_rtt_us", transport_rtt_us(opt)},
        {"span.put_to_exec_us_p50", median(rep.put_to_exec_us)},
        {"span.put_to_exec_us_p99", quantile(rep.put_to_exec_us, 0.99)},
        {"span.exec_to_ready_us_p50", median(rep.exec_to_ready_us)},
        {"trace.overhead_frac", untraced > 0.0 ? traced / untraced - 1.0 : 0.0},
    };

    // Validity of the span split: on the latency workloads the request
    // legs should add up to the traced request latency.
    double const legs = median(rep.put_ns) / 1e3 +
        median(rep.put_to_exec_us) + median(rep.exec_to_ready_us);
    double const lat = median(rep.lat_us_traced);
    rep.diag["span_sum_frac"] = lat > 0.0 ? legs / lat - 1.0 : 0.0;

    std::vector<metric> out;
    for (auto const& [name, unit] : layer_metric_units())
    {
        auto it = run_level.find(name);
        double const v = it != run_level.end() ? it->second :
                                                 median(rep.layer[name]);
        out.push_back({name, unit, v});
    }
    return out;
}

/// Quantile `q` of each runtime's slice of `values`, then the median over
/// runtimes: one odd runtime (a host stall, a lossy runtime whose
/// retransmit timeouts settled differently) cannot move the result.
double per_runtime(std::vector<double> const& values,
    std::vector<std::size_t> const& marks, double q)
{
    std::vector<double> per;
    std::size_t begin = 0;
    for (std::size_t end : marks)
    {
        if (end > begin)
        {
            per.push_back(quantile(
                {values.begin() + static_cast<std::ptrdiff_t>(begin),
                    values.begin() + static_cast<std::ptrdiff_t>(end)},
                q));
        }
        begin = end;
    }
    return median(std::move(per));
}

std::vector<metric> end_to_end_metrics(report const& rep)
{
    double const wall = rep.step_wall_s;
    double const requests = static_cast<double>(rep.step_requests);
    auto per_s = [wall](double v) { return wall > 0.0 ? v / wall : 0.0; };
    return {
        {"setup_s", "s", median(rep.setup_s)},
        {"step_ms", "ms", per_runtime(rep.step_ms, rep.step_marks, 0.5)},
        {"parcels_per_s", "1/s", per_s(requests)},
        {"goodput_MBps", "MB/s", per_s(requests * rep.useful_bytes) / 1e6},
        {"lat_p50_us", "us", per_runtime(rep.lat_us, rep.lat_marks, 0.5)},
        {"lat_p90_us", "us", per_runtime(rep.lat_us, rep.lat_marks, 0.9)},
        {"rss_peak_mb", "MB", first_runtime_rss_mb},
    };
}

std::string diagnostics_json(report& rep)
{
    rep.diag["steps"] = static_cast<double>(rep.step_ms.size());
    rep.diag["lat_samples"] = static_cast<double>(rep.lat_us.size());
    rep.diag["step_p95_ms"] = quantile(rep.step_ms, 0.95);
    rep.diag["lat_p99_us"] = quantile(rep.lat_us, 0.99);
    rep.diag["lat_p999_us"] = quantile(rep.lat_us, 0.999);
    rep.diag["fail_frac"] = rep.attempted == 0 ?
        0.0 :
        static_cast<double>(rep.failed) / static_cast<double>(rep.attempted);
    std::string out = "{";
    for (auto const& [k, v] : rep.diag)
        out += "\"" + k + "\": " + json_number(v) + ", ";
    out += "\"checks\": {";
    for (std::size_t i = 0; i != rep.checks.size(); ++i)
    {
        out += (i == 0 ? "\"" : ", \"") + rep.checks[i].name + "#" +
            std::to_string(i) + "\": " +
            (rep.checks[i].ok ? "true" : "false");
    }
    return out + "}}";
}

using workload_fn = void (*)(report&, options const&);

workload_fn run_function(std::string const& name)
{
    static std::map<std::string, workload_fn> const table{
        {"toy", [](report& r, options const& o) { run_toy(r, o, false); }},
        {"lossy", [](report& r, options const& o) { run_toy(r, o, true); }},
        {"parquet", run_parquet},
        {"paced", run_paced},
        {"wire", run_wire},
    };
    auto it = table.find(name);
    return it == table.end() ? nullptr : it->second;
}

int usage()
{
    std::fprintf(stderr,
        "usage: bench_report workload=<toy|parquet|paced|wire|lossy> "
        "seed=<n> seconds=<s> trace=<0|1> [quick=1] [sock_dir=<dir>] "
        "[trace_dir=<dir>]\n");
    return 2;
}

}    // namespace

}    // namespace bench_report

int main(int argc, char** argv)
{
    using namespace bench_report;

    coal::config args;
    auto const positional = args.parse_args(argc, argv);
    options opt;
    opt.workload = args.get_string("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opt.seconds = args.get_double("seconds", 10.0);
    opt.trace = args.get_bool("trace", false);
    opt.quick = args.get_bool("quick", false);
    opt.sock_dir = args.get_string("sock_dir", ".");
    opt.trace_dir = args.get_string("trace_dir", ".");
    for (auto const& [key, value] : args.entries())
    {
        static char const* const known[] = {"workload", "seed", "seconds",
            "trace", "quick", "sock_dir", "trace_dir"};
        if (std::find_if(std::begin(known), std::end(known),
                [&key](char const* k) { return key == k; }) ==
            std::end(known))
            return usage();
    }
    if (!positional.empty() || !(opt.seconds > 0.0))
        return usage();

    requests().seed = opt.seed;
    auto run = run_function(opt.workload);
    if (run == nullptr)
        return usage();

    // An unmeasured pass first.  On this kind of host a process that
    // starts after the machine idled runs slow for its first seconds
    // (seen as paced generator lateness p99 ~500 us instead of ~3 us for
    // about 2 s); the pass also fills the allocator and buffer pool.
    if (!opt.quick)
    {
        options warm = opt;
        warm.quick = true;
        warm.trace = false;
        warm.seconds = 2.0;
        report discarded;
        run(discarded, warm);
    }

    report rep;
    run(rep, opt);

    std::uint64_t const stray = requests().stray.load();
    std::uint64_t const corrupt = requests().corrupt.load();
    rep.check("exactly_once_and_intact", rep.failed == 0 && stray == 0 &&
            corrupt == 0,
        std::to_string(rep.failed) + " failed, " + std::to_string(stray) +
            " stray, " + std::to_string(corrupt) + " corrupt");
    rep.failed += stray + corrupt;

    std::vector<metric> const metrics =
        opt.trace ? layer_metrics(rep, opt) : end_to_end_metrics(rep);

    if (opt.trace)
    {
        std::error_code ec;
        std::filesystem::create_directories(opt.trace_dir, ec);
        std::string const path = opt.trace_dir + "/" + opt.workload + ".json";
        if (write_chrome_trace(path, rep.events))
            std::printf("trace %s (%zu spans)\n", path.c_str(),
                rep.events.size());
        else
            std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    }

    bool correct = rep.failed == 0;
    for (auto const& c : rep.checks)
    {
        correct = correct && c.ok;
        if (!c.ok)
            std::printf("check %s FAILED: %s\n", c.name.c_str(),
                c.detail.c_str());
    }
    std::printf("diagnostics %s\n", diagnostics_json(rep).c_str());
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(rep.attempted),
        static_cast<unsigned long long>(rep.failed),
        metrics_json(metrics).c_str());
    return correct ? 0 : 1;
}
