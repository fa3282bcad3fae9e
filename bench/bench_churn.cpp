/// \file bench_churn.cpp
/// Peer-scale churn: one parcelhandler versus 100k peers.  A synthetic
/// ack-echo transport plays the entire remote population — every
/// sequenced frame is acknowledged inline from a per-peer cumulative
/// counter — so the handler under test runs its real send and
/// reliability machinery against peer counts no in-process harness of
/// actual parcelhandlers could host.
///
/// Per peer-count row (1k / 10k / 100k): a round-robin pass first
/// touches every peer (first contact creates each peer's state in the
/// dense peer table), then Zipf-distributed traffic models the skew
/// where a hot minority carries most parcels.  Reported: p50/p99/max
/// put_parcel latency, end-to-end confirm throughput, and resident-set
/// growth per peer with every peer contacted.
///
///     ./build/bench/bench_churn [peers=1000,10000,100000]
///         [traffic=4] [zipf_s=1.0]
///
/// Machine-readable rows:
///     BENCH {"bench":"churn","peers":...,"p99_put_us":...,
///            "confirm_pps":...,"rss_per_peer_b":...}

#include "bench_common.hpp"

#include <coal/common/spinlock.hpp>
#include <coal/common/stopwatch.hpp>
#include <coal/net/transport.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/threading/scheduler.hpp>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

namespace {

int churn_sink(int x)
{
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(churn_sink, churn_sink_action);

namespace {

using coal::stopwatch;
using coal::parcel::frame_header;
using coal::parcel::parcel;
using coal::parcel::parcelhandler;
using coal::parcel::reliability_params;
using coal::threading::scheduler;
using coal::threading::scheduler_config;

/// Plays every remote peer at once: a sequenced frame to peer `d` bumps
/// d's cumulative-ack counter and is answered inline with a standalone
/// ack frame, so the sender's reliability state drains exactly as it
/// would against a live (and infinitely fast) population.  Control
/// frames (seq 0) are swallowed — the population never initiates.
class ack_echo_transport final : public coal::net::transport
{
public:
    explicit ack_echo_transport(std::uint32_t peers)
      : cum_(peers + 1)
    {
        for (auto& c : cum_)
            c.store(0, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint32_t num_localities() const noexcept override
    {
        return static_cast<std::uint32_t>(cum_.size());
    }

    void set_delivery_handler(
        std::uint32_t dst, delivery_handler handler) override
    {
        if (dst == 0)
            to_sender_ = std::move(handler);
    }

    void send(std::uint32_t src, std::uint32_t dst,
        coal::serialization::wire_message&& message) override
    {
        (void) src;
        sent_.fetch_add(1, std::memory_order_relaxed);
        auto flat = message.flatten_copy();
        auto const info = coal::parcel::peek_frame(flat);
        if (info.header.seq == 0)
            return;    // heartbeat/ack toward the population: swallow
        // Cumulative ack: frames for one peer arrive in seq order on a
        // healthy link, but retransmit races make fetch-max the honest
        // reduction.
        auto& cum = cum_[dst];
        std::uint64_t seen = cum.load(std::memory_order_relaxed);
        while (seen < info.header.seq &&
            !cum.compare_exchange_weak(
                seen, info.header.seq, std::memory_order_relaxed))
        {
        }
        frame_header ack;
        ack.ack = cum.load(std::memory_order_relaxed);
        ack.src_epoch = info.header.dst_epoch;
        ack.dst_epoch = info.header.src_epoch;
        echoed_.fetch_add(1, std::memory_order_relaxed);
        to_sender_(dst,
            coal::parcel::encode_message({}, ack).flatten_copy());
    }

    [[nodiscard]] std::uint64_t in_flight() const noexcept override
    {
        return 0;    // delivery is inline
    }

    void drain() override {}

    [[nodiscard]] coal::net::transport_stats stats() const override
    {
        coal::net::transport_stats s;
        s.messages_sent = sent_.load(std::memory_order_relaxed);
        s.messages_delivered = echoed_.load(std::memory_order_relaxed);
        return s;
    }

    void shutdown() override {}

private:
    delivery_handler to_sender_;
    std::vector<std::atomic<std::uint64_t>> cum_;
    std::atomic<std::uint64_t> sent_{0};
    std::atomic<std::uint64_t> echoed_{0};
};

std::uint64_t mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Zipf(s) sampler over [1, n] via inverse CDF on the precomputed
/// cumulative weights (binary search per draw).
class zipf_sampler
{
public:
    zipf_sampler(std::uint32_t n, double s)
      : cdf_(n)
    {
        double acc = 0.0;
        for (std::uint32_t k = 1; k <= n; ++k)
        {
            acc += 1.0 / std::pow(static_cast<double>(k), s);
            cdf_[k - 1] = acc;
        }
        total_ = acc;
    }

    [[nodiscard]] std::uint32_t operator()(std::uint64_t& state) const
    {
        state = mix(state);
        double const u = total_ *
            (static_cast<double>(state >> 11) * 0x1.0p-53);
        auto const it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return static_cast<std::uint32_t>(it - cdf_.begin()) + 1;
    }

private:
    std::vector<double> cdf_;
    double total_ = 0.0;
};

/// Resident set size in bytes (/proc/self/statm; 0 where unsupported).
std::uint64_t rss_bytes()
{
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long long total = 0, resident = 0;
    int const n = std::fscanf(f, "%llu %llu", &total, &resident);
    std::fclose(f);
    if (n != 2)
        return 0;
    return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

double percentile(std::vector<double>& v, double p)
{
    if (v.empty())
        return 0.0;
    auto const idx = static_cast<std::size_t>(
        p * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
        v.end());
    return v[idx];
}

void run_row(std::uint32_t peers, std::uint32_t traffic_mult, double zipf_s,
    coal::bench::csv_sink& csv)
{
    std::uint64_t const rss_start = rss_bytes();

    ack_echo_transport transport(peers);
    scheduler_config cfg;
    cfg.num_workers = 2;
    scheduler sched(cfg);

    reliability_params rel;
    rel.enabled = true;
    rel.ack_delay_us = 200;
    rel.min_rto_us = 50000;    // the echo acks instantly; RTO is noise
    rel.max_rto_us = 200000;

    parcelhandler ph(0, transport, sched, rel);

    auto put_one = [&](std::uint32_t dst) {
        parcel p;
        p.dest = dst;
        p.action = churn_sink_action::id();
        p.arguments = churn_sink_action::make_arguments(7);
        ph.put_parcel(std::move(p));
    };

    // Phase 1 — population growth: one parcel to every peer, timing each
    // put (each send is the peer's first contact).
    std::vector<double> put_us;
    put_us.reserve(peers * (traffic_mult + 1));
    stopwatch grow;
    for (std::uint32_t d = 1; d <= peers; ++d)
    {
        auto const t0 = std::chrono::steady_clock::now();
        put_one(d);
        auto const t1 = std::chrono::steady_clock::now();
        put_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
    }

    // Phase 2 — skewed steady-state traffic: a hot head, a long idle
    // tail.
    zipf_sampler zipf(peers, zipf_s);
    std::uint64_t rng = 0x5eed + peers;
    std::uint64_t const extra =
        static_cast<std::uint64_t>(peers) * traffic_mult;
    for (std::uint64_t i = 0; i != extra; ++i)
    {
        std::uint32_t const dst = zipf(rng);
        auto const t0 = std::chrono::steady_clock::now();
        put_one(dst);
        auto const t1 = std::chrono::steady_clock::now();
        put_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        if ((i & 0xfff) == 0)    // let the pipeline breathe
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    }

    std::uint64_t const offered = peers + extra;
    stopwatch confirm_deadline;
    while (ph.counters().parcels_confirmed.load() < offered &&
        confirm_deadline.elapsed_ms() < 120000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    double const wall_s = grow.elapsed_ms() / 1000.0;
    std::uint64_t const confirmed = ph.counters().parcels_confirmed.load();
    std::uint64_t const rss_loaded = rss_bytes();
    std::size_t const known = ph.health().known_peers;

    double const p50 = percentile(put_us, 0.50);
    double const p99 = percentile(put_us, 0.99);
    double const pmax = *std::max_element(put_us.begin(), put_us.end());
    double const confirm_pps =
        wall_s > 0.0 ? static_cast<double>(confirmed) / wall_s : 0.0;
    double const rss_per_peer = peers != 0 ?
        static_cast<double>(rss_loaded - rss_start) / peers :
        0.0;

    std::printf("peers %7u | put us p50 %6.2f p99 %7.2f max %8.1f | "
                "confirmed %" PRIu64 "/%" PRIu64 " (%.0f/s) | "
                "rss/peer %.0f B | known %zu\n",
        peers, p50, p99, pmax, confirmed, offered, confirm_pps,
        rss_per_peer, known);
    std::printf("BENCH {\"bench\":\"churn\",\"peers\":%u,"
                "\"p50_put_us\":%.3f,\"p99_put_us\":%.3f,"
                "\"max_put_us\":%.1f,\"confirm_pps\":%.0f,"
                "\"confirmed\":%" PRIu64 ",\"offered\":%" PRIu64 ","
                "\"rss_per_peer_b\":%.0f,\"known_peers\":%zu}\n",
        peers, p50, p99, pmax, confirm_pps, confirmed, offered,
        rss_per_peer, known);
    csv.row("%u,%.3f,%.3f,%.1f,%.0f,%.0f", peers, p50, p99, pmax,
        confirm_pps, rss_per_peer);

    ph.stop();
    sched.stop();
}

}    // namespace

int main(int argc, char** argv)
{
    auto const cfg = coal::bench::parse_cli(argc, argv);
    coal::bench::print_header(
        "Peer-scale churn: dense peer table under Zipf traffic",
        "scaling evidence for the peer table (DESIGN.md §13)");

    std::vector<std::uint32_t> peer_counts;
    {
        std::string const list =
            cfg.get_string("peers", "1000,10000,100000");
        for (std::size_t pos = 0; pos < list.size();)
        {
            auto const comma = list.find(',', pos);
            auto const token = list.substr(pos,
                comma == std::string::npos ? std::string::npos : comma - pos);
            if (!token.empty())
                peer_counts.push_back(static_cast<std::uint32_t>(
                    std::strtoull(token.c_str(), nullptr, 10)));
            pos = comma == std::string::npos ? list.size() : comma + 1;
        }
    }
    auto const traffic = static_cast<std::uint32_t>(cfg.get_int("traffic", 4));
    double const zipf_s = cfg.get_double("zipf_s", 1.0);

    coal::bench::csv_sink csv(cfg,
        "peers,p50_put_us,p99_put_us,max_put_us,confirm_pps,"
        "rss_per_peer_b");

    for (auto const peers : peer_counts)
        run_row(static_cast<std::uint32_t>(peers), traffic, zipf_s, csv);
    return 0;
}
