/// \file bench_micro.cpp
/// google-benchmark microbenchmarks for the substrate the experiments
/// stand on: serialization, message framing, scheduler dispatch, future
/// round trips, counter queries and histogram updates.

#include <coal/apps/toy_app.hpp>
#include <coal/common/histogram.hpp>
#include <coal/common/mpmc_queue.hpp>
#include <coal/common/spinlock.hpp>
#include <coal/common/stopwatch.hpp>
#include <coal/core/coalescing_message_handler.hpp>
#include <coal/net/loopback.hpp>
#include <coal/net/sim_network.hpp>
#include <coal/net/socket_transport.hpp>
#include <coal/net/wire_format.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/parcel.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/perf/registry.hpp>
#include <coal/runtime/runtime.hpp>
#include <coal/serialization/archive.hpp>
#include <coal/serialization/buffer_pool.hpp>
#include <coal/threading/future.hpp>
#include <coal/threading/scheduler.hpp>
#include <coal/trace/tracer.hpp>

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace {

using coal::serialization::byte_buffer;
using coal::serialization::from_bytes;
using coal::serialization::to_bytes;

int micro_noop(int x)
{
    return x;
}

std::atomic<std::uint64_t> g_receive_executed{0};

int receive_sink(int x)
{
    g_receive_executed.fetch_add(1, std::memory_order_relaxed);
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(micro_noop, micro_noop_action);
COAL_PLAIN_ACTION(receive_sink, receive_sink_action);

namespace {

void BM_SerializeComplexVector(benchmark::State& state)
{
    std::vector<std::complex<double>> const payload(
        static_cast<std::size_t>(state.range(0)),
        std::complex<double>(1.5, -0.5));
    for (auto _ : state)
    {
        auto buf = to_bytes(payload);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
        state.range(0) * 16);
}
BENCHMARK(BM_SerializeComplexVector)->Arg(1)->Arg(64)->Arg(512)->Arg(4096);

void BM_DeserializeComplexVector(benchmark::State& state)
{
    auto const buf = to_bytes(std::vector<std::complex<double>>(
        static_cast<std::size_t>(state.range(0)),
        std::complex<double>(1.5, -0.5)));
    for (auto _ : state)
    {
        auto v = from_bytes<std::vector<std::complex<double>>>(buf);
        benchmark::DoNotOptimize(v.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
        state.range(0) * 16);
}
BENCHMARK(BM_DeserializeComplexVector)->Arg(64)->Arg(4096);

void BM_EncodeMessageFrame(benchmark::State& state)
{
    std::vector<coal::parcel::parcel> batch;
    for (int i = 0; i != state.range(0); ++i)
    {
        coal::parcel::parcel p;
        p.dest = 1;
        p.action = micro_noop_action::id();
        p.arguments = micro_noop_action::make_arguments(i);
        batch.push_back(std::move(p));
    }
    for (auto _ : state)
    {
        auto wire = coal::parcel::encode_message(batch);
        benchmark::DoNotOptimize(wire.size());
    }
}
BENCHMARK(BM_EncodeMessageFrame)->Arg(1)->Arg(16)->Arg(128);

void BM_DecodeMessageFrame(benchmark::State& state)
{
    std::vector<coal::parcel::parcel> batch;
    for (int i = 0; i != state.range(0); ++i)
    {
        coal::parcel::parcel p;
        p.dest = 1;
        p.action = micro_noop_action::id();
        p.arguments = micro_noop_action::make_arguments(i);
        batch.push_back(std::move(p));
    }
    auto const wire = coal::parcel::encode_message(batch);
    for (auto _ : state)
    {
        auto parcels = coal::parcel::decode_message(wire);
        benchmark::DoNotOptimize(parcels.data());
    }
}
BENCHMARK(BM_DecodeMessageFrame)->Arg(1)->Arg(16)->Arg(128);

void BM_SchedulerPostExecute(benchmark::State& state)
{
    coal::threading::scheduler_config cfg;
    cfg.num_workers = 1;
    coal::threading::scheduler sched(cfg);
    std::atomic<std::int64_t> sink{0};
    for (auto _ : state)
    {
        for (int i = 0; i != 256; ++i)
            sched.post([&sink] { sink.fetch_add(1); });
        sched.wait_idle();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_SchedulerPostExecute);

void BM_FutureRoundTrip(benchmark::State& state)
{
    for (auto _ : state)
    {
        coal::threading::promise<int> p;
        auto f = p.get_future();
        p.set_value(1);
        benchmark::DoNotOptimize(f.get());
    }
}
BENCHMARK(BM_FutureRoundTrip);

void BM_HistogramAdd(benchmark::State& state)
{
    coal::concurrent_histogram h({0, 100000, 20});
    std::int64_t v = 0;
    for (auto _ : state)
    {
        h.add(v);
        v = (v + 997) % 120000;
    }
    benchmark::DoNotOptimize(h.total());
}
BENCHMARK(BM_HistogramAdd);

void BM_CounterQuery(benchmark::State& state)
{
    coal::perf::counter_registry reg;
    double value = 1.0;
    reg.register_counter_type("/bench/value", "",
        [&value](coal::perf::counter_path const&) {
            return std::make_shared<coal::perf::function_counter>(
                [&value] { return value; });
        });
    for (auto _ : state)
    {
        auto v = reg.query("/bench{locality#0}/value@param");
        benchmark::DoNotOptimize(v.value);
    }
}
BENCHMARK(BM_CounterQuery);

void BM_SpinlockUncontended(benchmark::State& state)
{
    coal::spinlock lock;
    for (auto _ : state)
    {
        lock.lock();
        lock.unlock();
    }
}
BENCHMARK(BM_SpinlockUncontended);

// ---- zero-copy pipeline report ------------------------------------------
//
// Runs the coalesced toy-app path against the live buffer pool and reports
// measured bytes-copied-per-parcel, comparing against an emulation of the
// pre-pool pipeline (serialize into a growing vector frame, copy argument
// images in on encode and out on decode).  Emitted as a BENCH line so the
// driver can track the copy reduction across commits.

void report_zero_copy_pipeline()
{
    using coal::serialization::buffer_pool;

    coal::runtime_config cfg;
    cfg.num_localities = 2;
    cfg.transport = "loopback";
    coal::runtime rt(cfg);

    coal::apps::toy_params params;
    params.parcels_per_phase = 20000;
    params.phases = 2;
    params.enable_coalescing = true;
    params.coalescing = {64, 4000};

    // Warm-up: populate the pool free lists and code paths.
    (void) coal::apps::run_toy_app(rt, params);
    rt.quiesce();

    auto& counters = rt.counters();
    auto const before = buffer_pool::global().stats();
    double const parcels0 = counters.query("/parcels/count/sent").value;
    double const messages0 = counters.query("/messages/count/sent").value;

    (void) coal::apps::run_toy_app(rt, params);
    rt.quiesce();

    auto const after = buffer_pool::global().stats();
    double const parcels =
        counters.query("/parcels/count/sent").value - parcels0;
    double const messages =
        counters.query("/messages/count/sent").value - messages0;
    rt.stop();

    double const copied = static_cast<double>(
        (after.bytes_copied - before.bytes_copied) +
        (after.bytes_flattened - before.bytes_flattened));
    double const referenced =
        static_cast<double>(after.bytes_referenced - before.bytes_referenced);
    double const hits = static_cast<double>(after.hits - before.hits);
    double const misses = static_cast<double>(after.misses - before.misses);

    // Decode borrows every argument image by reference, so the referenced
    // delta measures total argument bytes — the input to the legacy model.
    double const args_per_parcel = parcels > 0 ? referenced / parcels : 0.0;
    std::size_t const batch = static_cast<std::size_t>(
        messages > 0 ? parcels / messages + 0.5 : 1.0);

    // Legacy emulation: one coalesced frame in the pre-pool pipeline.
    // The frame vector doubles as it grows (re-copying its contents), each
    // argument image is memcpy'd in on encode and copied out on decode.
    auto legacy_frame_copies = [](std::size_t nparcels,
                                   std::size_t args) -> std::uint64_t {
        std::uint64_t copied_bytes = 0;
        std::size_t size = 0, cap = 0;
        auto append = [&](std::size_t n, bool payload) {
            if (size + n > cap)
            {
                copied_bytes += size;    // vector growth re-copy
                cap = std::max({cap * 2, size + n, std::size_t(128)});
            }
            if (payload)
                copied_bytes += n;    // memcpy of a serialized image
            size += n;
        };
        append(coal::parcel::frame_prefix_bytes, false);
        for (std::size_t i = 0; i != nparcels; ++i)
        {
            append(coal::parcel::parcel::header_bytes + 8, false);
            append(args, true);
        }
        copied_bytes +=
            static_cast<std::uint64_t>(nparcels) * args;    // decode copy-out
        return copied_bytes;
    };

    double const new_pp = parcels > 0 ? copied / parcels : 0.0;
    double const legacy_pp = batch > 0
        ? static_cast<double>(legacy_frame_copies(batch,
              static_cast<std::size_t>(args_per_parcel + 0.5))) /
            static_cast<double>(batch)
        : 0.0;

    std::printf("BENCH {\"bench\":\"micro_zero_copy\","
                "\"parcels\":%.0f,\"messages\":%.0f,"
                "\"bytes_copied_per_parcel\":%.2f,"
                "\"legacy_bytes_copied_per_parcel\":%.2f,"
                "\"copy_reduction\":%.2f,"
                "\"bytes_referenced_per_parcel\":%.2f,"
                "\"pool_hit_rate\":%.4f,"
                "\"allocs\":%.0f,\"allocs_per_parcel\":%.4f}\n",
        parcels, messages, new_pp, legacy_pp,
        new_pp > 0.0 ? legacy_pp / new_pp : 0.0, args_per_parcel,
        hits + misses > 0 ? hits / (hits + misses) : 0.0, misses,
        parcels > 0 ? misses / parcels : 0.0);
}

// ---- enqueue contention report -------------------------------------------
//
// Hammers the coalescer's enqueue path from 1/2/4/8 producer threads, all
// aiming at one destination (worst case: one shard lock) and spread across
// eight destinations (best case: disjoint shards), and compares against a
// faithful emulation of the pre-sharding design — one global std::mutex
// over the queue map plus the old spinlock-guarded arrival statistics.
// The rows are measured on this host's cores only: a host with fewer
// cores than producer threads shows no parallel speedup, and no modelled
// extrapolation stands in for it.

std::vector<coal::parcel::parcel> make_parcels(
    std::size_t count, std::uint32_t dst)
{
    std::vector<coal::parcel::parcel> parcels;
    parcels.reserve(count);
    for (std::size_t i = 0; i != count; ++i)
    {
        coal::parcel::parcel p;
        p.dest = dst;
        p.action = micro_noop_action::id();
        p.arguments =
            micro_noop_action::make_arguments(static_cast<int>(i));
        parcels.push_back(std::move(p));
    }
    return parcels;
}

/// The pre-sharding send path, reproduced: spinlock-guarded parameter
/// snapshot (the old shared_params), one mutex over the whole queue map
/// (batch hand-off under the lock), the old global-spinlock arrival
/// statistics, byte accounting, and the trace hook — everything the old
/// enqueue did per parcel except arming the flush deadline (first parcel
/// per destination only, so omitting it favours the baseline and keeps
/// the recorded comparison conservative).
struct global_mutex_coalescer
{
    coal::spinlock params_lock;
    coal::coalescing::coalescing_params params;
    std::mutex mutex;
    std::unordered_map<std::uint32_t, std::vector<coal::parcel::parcel>>
        queues;
    std::unordered_map<std::uint32_t, std::size_t> queued_bytes;
    std::atomic<std::uint64_t> parcels{0};
    coal::spinlock arrival_lock;
    std::int64_t last_arrival_ns = -1;
    std::uint64_t gap_count = 0;
    double gap_sum_us = 0.0;
    coal::concurrent_histogram hist{{0, 100000, 20}};

    void enqueue(coal::parcel::parcel&& p)
    {
        coal::coalescing::coalescing_params snapshot;
        {
            std::lock_guard lock(params_lock);
            snapshot = params;
        }
        parcels.fetch_add(1, std::memory_order_relaxed);
        std::int64_t const now = coal::now_ns();
        std::int64_t gap = -1;
        {
            std::lock_guard lock(arrival_lock);
            if (last_arrival_ns >= 0)
            {
                gap = now - last_arrival_ns;
                ++gap_count;
                gap_sum_us += static_cast<double>(gap) / 1000.0;
            }
            last_arrival_ns = now;
        }
        if (gap >= 0)
            hist.add(gap / 1000);
        std::uint64_t const action = p.action;
        std::lock_guard lock(mutex);
        auto& queue = queues[p.dest];
        queued_bytes[p.dest] += p.wire_size();
        queue.push_back(std::move(p));
        coal::trace::tracer::global().record(0,
            coal::trace::event_kind::coalescing_queued, action, queue.size());
        benchmark::DoNotOptimize(snapshot.nparcels);
    }
};

/// Run `threads` producers, thread t enqueueing `per_thread` pre-built
/// parcels through `enqueue`; returns parcels/second.
template <typename Enqueue>
double run_producers(unsigned threads, bool spread, std::size_t per_thread,
    Enqueue&& enqueue)
{
    std::vector<std::vector<coal::parcel::parcel>> inputs;
    for (unsigned t = 0; t != threads; ++t)
        inputs.push_back(
            make_parcels(per_thread, spread ? 1 + (t & 7) : 1));

    std::atomic<bool> start{false};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t != threads; ++t)
    {
        workers.emplace_back([&, t] {
            while (!start.load(std::memory_order_acquire))
                coal::cpu_relax();
            for (auto& p : inputs[t])
                enqueue(std::move(p));
        });
    }
    std::int64_t const t0 = coal::now_ns();
    start.store(true, std::memory_order_release);
    for (auto& w : workers)
        w.join();
    std::int64_t const t1 = coal::now_ns();
    return static_cast<double>(threads * per_thread) * 1e9 /
        static_cast<double>(t1 - t0);
}

void report_enqueue_contention()
{
    constexpr std::size_t per_thread = 40000;
    // Large nparcels/interval: the measured region is pure enqueue (queue
    // mutation + arrival statistics), no flush traffic — identical work
    // for both implementations.
    coal::coalescing::coalescing_params params;
    params.nparcels = 1u << 30;
    params.interval_us = 10000000;
    params.max_buffer_bytes = std::size_t(1) << 40;

    auto run_sharded = [&](unsigned threads, bool spread) {
        coal::net::loopback_transport transport(16);
        coal::threading::scheduler_config cfg;
        cfg.num_workers = 1;
        coal::threading::scheduler sched(cfg);
        coal::parcel::parcelhandler parcels(0, transport, sched);
        coal::coalescing::coalescing_message_handler handler("bench",
            parcels, std::make_shared<coal::coalescing::shared_params>(params),
            std::make_shared<coal::coalescing::coalescing_counters>());
        return run_producers(threads, spread, per_thread,
            [&](coal::parcel::parcel&& p) { handler.enqueue(std::move(p)); });
    };
    auto run_baseline = [&](unsigned threads, bool spread) {
        global_mutex_coalescer handler;
        return run_producers(threads, spread, per_thread,
            [&](coal::parcel::parcel&& p) { handler.enqueue(std::move(p)); });
    };

    for (unsigned threads : {1u, 2u, 4u, 8u})
    {
        for (bool spread : {false, true})
        {
            double const sharded = run_sharded(threads, spread);
            double const baseline = run_baseline(threads, spread);
            std::printf("BENCH {\"bench\":\"micro_enqueue_contention\","
                        "\"threads\":%u,\"dst\":\"%s\","
                        "\"sharded_parcels_per_sec\":%.0f,"
                        "\"global_mutex_parcels_per_sec\":%.0f,"
                        "\"speedup\":%.2f}\n",
                threads, spread ? "spread" : "same", sharded, baseline,
                baseline > 0 ? sharded / baseline : 0.0);
        }
    }
}

// ---- batched receive pipeline report -------------------------------------
//
// Drains pre-encoded frames through the real parcelhandler (budgeted
// multi-frame drain, lazy decode, chunked bulk spawn) and through a
// faithful emulation of the pre-batching receive path (one frame per
// progress call, full decode on the background worker, one scheduler.post
// per parcel, a fresh 3-closure invocation context per execution), at
// batch sizes 1/64/512 and 1/2/4 workers.
//
// Like the enqueue-contention rows, these are measured only: a few-core
// host shows little speedup from extra workers.

std::vector<coal::parcel::parcel> make_sink_parcels(std::size_t count)
{
    std::vector<coal::parcel::parcel> parcels;
    parcels.reserve(count);
    for (std::size_t i = 0; i != count; ++i)
    {
        coal::parcel::parcel p;
        p.source = 1;
        p.dest = 0;
        p.action = receive_sink_action::id();
        p.arguments =
            receive_sink_action::make_arguments(static_cast<int>(i));
        parcels.push_back(std::move(p));
    }
    return parcels;
}

/// Push `total/batch` frames of `batch` parcels at a parcelhandler over
/// loopback and wait for every parcel to execute; returns parcels/second.
double run_batched_receive(
    unsigned workers, std::size_t batch, std::size_t total)
{
    coal::net::loopback_transport transport(16);
    coal::threading::scheduler_config cfg;
    cfg.num_workers = workers;
    coal::threading::scheduler sched(cfg);
    coal::parcel::parcelhandler handler(0, transport, sched);

    auto const flat =
        coal::parcel::encode_message(make_sink_parcels(batch)).flatten_copy();
    std::size_t const frames = total / batch;
    std::uint64_t const expected =
        g_receive_executed.load(std::memory_order_relaxed) + frames * batch;

    std::int64_t const t0 = coal::now_ns();
    for (std::size_t i = 0; i != frames; ++i)
    {
        transport.send(1, 0, coal::serialization::wire_message(
                                 coal::serialization::shared_buffer(flat)));
    }
    while (g_receive_executed.load(std::memory_order_acquire) < expected)
        std::this_thread::yield();
    std::int64_t const t1 = coal::now_ns();
    sched.stop();
    return static_cast<double>(frames * batch) * 1e9 /
        static_cast<double>(t1 - t0);
}

/// Same traffic through the pre-batching receive path.
double run_legacy_receive(
    unsigned workers, std::size_t batch, std::size_t total)
{
    // Full decode on the background worker, then one task per parcel.
    // The inbox wakes nobody, so idle workers poll it every 100 us.
    struct legacy_receive final : coal::threading::progress_hook
    {
        coal::threading::scheduler* sched = nullptr;
        coal::mpmc_queue<coal::serialization::shared_buffer> inbox;

        bool progress() override
        {
            auto msg = inbox.try_pop();
            if (!msg)
                return false;
            auto parcels = coal::parcel::decode_message(*msg);
            for (auto& p : parcels)
            {
                sched->post([parcel = std::move(p)]() mutable {
                    // Fresh per-parcel invocation context, as the old
                    // execute_parcel built.
                    coal::parcel::invocation_context ctx;
                    ctx.this_locality = 0;
                    ctx.put_parcel = [](coal::parcel::parcel&&) {};
                    ctx.complete_promise =
                        [](coal::parcel::continuation_id,
                            coal::serialization::shared_buffer&&) {};
                    auto const* entry =
                        coal::parcel::action_registry::instance().find(
                            parcel.action);
                    entry->invoke(ctx, std::move(parcel));
                });
            }
            return true;
        }
        bool idle_flush() override
        {
            return false;
        }
        std::int64_t max_idle_sleep_ns() const override
        {
            return 100'000;
        }
    } hook;

    coal::threading::scheduler_config cfg;
    cfg.num_workers = workers;
    coal::threading::scheduler sched(cfg);
    hook.sched = &sched;
    sched.install_progress(&hook);
    auto& inbox = hook.inbox;

    auto const flat =
        coal::parcel::encode_message(make_sink_parcels(batch)).flatten_copy();
    std::size_t const frames = total / batch;
    std::uint64_t const expected =
        g_receive_executed.load(std::memory_order_relaxed) + frames * batch;

    std::int64_t const t0 = coal::now_ns();
    for (std::size_t i = 0; i != frames; ++i)
        inbox.push(coal::serialization::shared_buffer(flat));
    while (g_receive_executed.load(std::memory_order_acquire) < expected)
        std::this_thread::yield();
    std::int64_t const t1 = coal::now_ns();
    sched.stop();
    return static_cast<double>(frames * batch) * 1e9 /
        static_cast<double>(t1 - t0);
}

void report_receive_pipeline()
{
    constexpr std::size_t total = 49152;    // divisible by 1, 64 and 512

    for (unsigned workers : {1u, 2u, 4u})
    {
        for (std::size_t batch : {std::size_t(1), std::size_t(64),
                 std::size_t(512)})
        {
            double const batched = run_batched_receive(workers, batch, total);
            double const legacy = run_legacy_receive(workers, batch, total);
            std::printf("BENCH {\"bench\":\"micro_receive_pipeline\","
                        "\"workers\":%u,\"batch\":%zu,"
                        "\"batched_parcels_per_sec\":%.0f,"
                        "\"legacy_parcels_per_sec\":%.0f,"
                        "\"speedup\":%.2f}\n",
                workers, batch, batched, legacy,
                legacy > 0 ? batched / legacy : 0.0);
        }
    }
}

// --- peer-state lookup under contention ------------------------------------
//
// The hot-path operation every send/ack performs: resolve a peer id to
// its protocol state and mutate one field under the narrowest possible
// lock.  Baseline is one unordered_map behind one global spinlock,
// against the dense peer table's index + per-peer lock.  Uniform random
// ids across 4096 peers: the baseline serializes every thread on one
// cacheline, the table only collides two threads when they hit the same
// peer.

void report_peer_lookup_contention()
{
    constexpr std::uint32_t npeers = 4096;
    constexpr std::size_t per_thread = 400000;

    coal::parcel::peer_table table(npeers);
    for (auto& e : table)
    {
        std::lock_guard lock(e.lock);
        table.create(e, 1);
    }

    coal::spinlock map_lock;
    std::unordered_map<std::uint32_t,
        std::unique_ptr<coal::parcel::peer_state>>
        map;
    for (std::uint32_t i = 0; i != npeers; ++i)
        map.emplace(i, std::make_unique<coal::parcel::peer_state>());

    auto run_threads = [&](unsigned threads, auto&& body) {
        std::atomic<bool> go{false};
        std::vector<std::thread> workers;
        workers.reserve(threads);
        for (unsigned t = 0; t != threads; ++t)
        {
            workers.emplace_back([&, t] {
                while (!go.load(std::memory_order_acquire))
                    coal::cpu_relax();
                std::uint64_t rng = 0x9e3779b9u * (t + 1);
                for (std::size_t i = 0; i != per_thread; ++i)
                {
                    rng += 0x9e3779b97f4a7c15ull;
                    std::uint64_t x = rng;
                    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ull;
                    body(static_cast<std::uint32_t>(x) & (npeers - 1));
                }
            });
        }
        std::int64_t const t0 = coal::now_ns();
        go.store(true, std::memory_order_release);
        for (auto& w : workers)
            w.join();
        std::int64_t const t1 = coal::now_ns();
        return static_cast<double>(per_thread) * threads * 1e9 /
            static_cast<double>(t1 - t0);
    };

    for (unsigned threads : {1u, 2u, 4u, 8u})
    {
        double const dense = run_threads(threads, [&](std::uint32_t id) {
            coal::parcel::peer_entry& e = table[id];
            std::lock_guard lock(e.lock);
            benchmark::DoNotOptimize(e.live->next_seq++);
        });
        double const baseline = run_threads(threads, [&](std::uint32_t id) {
            std::lock_guard lock(map_lock);
            auto const it = map.find(id);
            benchmark::DoNotOptimize(it->second->next_seq++);
        });
        std::printf("BENCH {\"bench\":\"micro_peer_lookup\",\"threads\":%u,"
                    "\"peers\":%u,\"table_lookups_per_sec\":%.0f,"
                    "\"global_lock_lookups_per_sec\":%.0f,"
                    "\"speedup\":%.2f}\n",
            threads, npeers, dense, baseline,
            baseline > 0 ? dense / baseline : 0.0);
    }
}

// ---- buffer-pool fit -------------------------------------------------------
//
// Resident pool bytes per payload byte for the three bench_report parcel
// shapes and their coalesced frames: the argument images, the encoded
// frame and the flattened copy the reliability layer transmits, all held
// at once as they are while a frame awaits its ack.  The pool's watermarks
// throttle on resident bytes, so a fit near 1.0 means they see real load,
// not size-class slack.

struct pool_fit_shape
{
    char const* name;
    std::size_t frame_parcels;
    coal::serialization::shared_buffer (*arguments)(std::uint64_t idx);
};

void report_pool_fit()
{
    using coal::serialization::buffer_pool;
    using coal::serialization::shared_buffer;

    pool_fit_shape const shapes[] = {
        {"toy", 128,
            [](std::uint64_t idx) { return to_bytes(std::make_tuple(idx)); }},
        {"parquet", 4,
            [](std::uint64_t idx) {
                return to_bytes(std::make_tuple(idx, std::uint32_t{1},
                    std::uint64_t{0}, std::vector<std::complex<double>>(32)));
            }},
        {"wire", 16,
            [](std::uint64_t idx) {
                return to_bytes(
                    std::make_tuple(idx, std::vector<std::uint8_t>(4096)));
            }},
    };

    buffer_pool& pool = buffer_pool::global();
    auto resident = [&pool] { return pool.stats().resident_bytes; };
    for (pool_fit_shape const& shape : shapes)
    {
        std::uint64_t const r0 = resident();
        std::vector<coal::parcel::parcel> batch;
        std::uint64_t payload = 0;
        for (std::size_t i = 0; i != shape.frame_parcels; ++i)
        {
            coal::parcel::parcel p;
            p.dest = 1;
            p.action = micro_noop_action::id();
            p.arguments = shape.arguments(i);
            payload += p.arguments.size();
            batch.push_back(std::move(p));
        }
        std::uint64_t const r_args = resident();
        auto const frame = coal::parcel::encode_message(batch);
        std::uint64_t const r_frame = resident();
        shared_buffer const flat = frame.flatten_copy();
        std::uint64_t const r_flat = resident();

        auto ratio = [](std::uint64_t held, std::uint64_t bytes) {
            return bytes != 0 ?
                static_cast<double>(held) / static_cast<double>(bytes) :
                0.0;
        };
        std::printf("BENCH {\"bench\":\"micro_pool_fit\","
                    "\"shape\":\"%s\",\"frame_parcels\":%zu,"
                    "\"arg_bytes\":%llu,\"arg_fit\":%.3f,"
                    "\"frame_bytes\":%zu,\"flat_fit\":%.3f,"
                    "\"resident_per_payload_byte\":%.3f}\n",
            shape.name, shape.frame_parcels,
            static_cast<unsigned long long>(payload / shape.frame_parcels),
            ratio(r_args - r0, payload), flat.size(),
            ratio(r_flat - r_frame, flat.size()),
            ratio(r_flat - r0, payload));
    }
}

// ---- CRC32C ---------------------------------------------------------------
//
// Every socket frame's payload is checksummed on send and verified on
// receive, so the wire pays this per byte, twice.  Reported for the
// bytewise reference and for the dispatched implementation at the frame
// sizes the wire carries: layer evidence for the wire goodput numbers.

double crc32c_gb_s(std::uint32_t (*crc)(void const*, std::size_t,
                       std::uint32_t) noexcept,
    byte_buffer const& bytes, std::size_t size)
{
    // Run for at least 50 ms so the reading is not timer granularity.
    std::uint64_t done = 0;
    std::uint32_t acc = 0;
    std::int64_t const t0 = coal::now_ns();
    std::int64_t t1 = t0;
    while (t1 - t0 < 50'000'000)
    {
        for (int i = 0; i != 64; ++i)
            acc = crc(bytes.data(), size, acc);
        done += 64 * size;
        t1 = coal::now_ns();
    }
    benchmark::DoNotOptimize(acc);
    return static_cast<double>(done) / static_cast<double>(t1 - t0);
}

void report_crc32c()
{
    byte_buffer bytes(64 * 1024);
    for (std::size_t i = 0; i != bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
    for (std::size_t size : {std::size_t(64), std::size_t(4096),
             std::size_t(64 * 1024)})
    {
        double const reference =
            crc32c_gb_s(coal::net::wire::detail::crc32c_reference, bytes, size);
        double const dispatched =
            crc32c_gb_s(coal::net::wire::crc32c, bytes, size);
        std::printf("BENCH {\"bench\":\"micro_crc32c\",\"bytes\":%zu,"
                    "\"impl\":\"%s\",\"reference_gb_s\":%.3f,"
                    "\"dispatched_gb_s\":%.3f,\"speedup\":%.1f}\n",
            size, coal::net::wire::detail::crc32c_implementation(), reference,
            dispatched, reference > 0 ? dispatched / reference : 0.0);
    }
}

// ---- wire transport RTT / throughput --------------------------------------
//
// One-way latency (half a ping-pong round trip) and bulk throughput over
// the real socket parcelport — UDS and TCP through the kernel's loopback
// stack — next to the simulated transport's numbers, so the BENCH stream
// records what the real wire costs relative to the model the experiments
// run on.

/// Spin (yielding) until `done()`; a wire that stops delivering ends the
/// run with a diagnostic after 60 s instead of hanging it.
template <typename Done>
void wait_or_die(Done&& done, char const* what)
{
    constexpr std::int64_t limit_ns = 60'000'000'000;
    std::int64_t const t0 = coal::now_ns();
    while (!done())
    {
        if (coal::now_ns() - t0 > limit_ns)
        {
            std::fprintf(stderr,
                "bench_micro: %s: not done after 60 s, giving up\n",
                what);
            std::exit(1);
        }
        std::this_thread::yield();
    }
}

double wire_rtt_us(coal::net::transport& net, int rounds)
{
    std::atomic<int> pongs{0};
    net.set_delivery_handler(
        1, [&net](std::uint32_t, coal::serialization::shared_buffer&&) {
            net.send(1, 0,
                coal::serialization::wire_message(
                    coal::serialization::shared_buffer(std::size_t(8))));
        });
    net.set_delivery_handler(0,
        [&pongs](std::uint32_t, coal::serialization::shared_buffer&&) {
            pongs.fetch_add(1, std::memory_order_release);
        });

    auto ping = [&net] {
        net.send(0, 1,
            coal::serialization::wire_message(
                coal::serialization::shared_buffer(std::size_t(8))));
    };

    // Warm-up establishes connections.
    ping();
    wait_or_die([&] { return pongs.load(std::memory_order_acquire) == 1; },
        "wire_rtt_us warm-up");

    std::int64_t const t0 = coal::now_ns();
    for (int i = 0; i != rounds; ++i)
    {
        int const seen = pongs.load(std::memory_order_acquire);
        ping();
        wait_or_die(
            [&] { return pongs.load(std::memory_order_acquire) != seen; },
            "wire_rtt_us pong");
    }
    std::int64_t const t1 = coal::now_ns();
    return static_cast<double>(t1 - t0) / (1000.0 * rounds);
}

double wire_throughput_mb_s(
    coal::net::transport& net, std::size_t frames, std::size_t bytes)
{
    // Bytes allowed in flight.  The socket transport sheds frames beyond
    // its 64 MiB outbound backlog by design, so offering all frames at
    // once would measure the shedding, not the wire.
    constexpr std::size_t window = 16u << 20;

    std::atomic<std::size_t> got{0};
    net.set_delivery_handler(0,
        [](std::uint32_t, coal::serialization::shared_buffer&&) {});
    net.set_delivery_handler(
        1, [&got](std::uint32_t, coal::serialization::shared_buffer&& buf) {
            got.fetch_add(buf.size(), std::memory_order_release);
        });

    coal::serialization::shared_buffer payload(bytes);
    std::memset(payload.mutable_data(), 0x5a, bytes);

    std::int64_t const t0 = coal::now_ns();
    for (std::size_t i = 0; i != frames; ++i)
    {
        std::size_t const sent = i * bytes;
        wait_or_die(
            [&] {
                return sent - got.load(std::memory_order_acquire) + bytes <=
                    window;
            },
            "wire_throughput_mb_s window");
        net.send(0, 1,
            coal::serialization::wire_message(
                coal::serialization::shared_buffer(payload)));
    }
    wait_or_die(
        [&] { return got.load(std::memory_order_acquire) == frames * bytes; },
        "wire_throughput_mb_s completion");
    std::int64_t const t1 = coal::now_ns();
    return static_cast<double>(frames * bytes) * 1e3 /
        static_cast<double>(t1 - t0);
}

std::uint64_t backlog_drops(coal::net::socket_transport const& net)
{
    return net.wire_stats().backlog_drops;
}

std::uint64_t backlog_drops(coal::net::transport const&)
{
    return 0;    // only the socket wire has an outbound backlog cap
}

void report_wire_transport()
{
    constexpr int rtt_rounds = 2000;
    constexpr std::size_t tp_frames = 4000;
    constexpr std::size_t tp_bytes = 64 * 1024;

    auto report = [&](char const* name, auto&& make) {
        double rtt = 0.0, tput = 0.0;
        std::uint64_t drops = 0;
        {
            auto net = make();
            rtt = wire_rtt_us(*net, rtt_rounds);
            net->drain();
            net->shutdown();
        }
        {
            auto net = make();
            tput = wire_throughput_mb_s(*net, tp_frames, tp_bytes);
            drops = backlog_drops(*net);
            net->drain();
            net->shutdown();
        }
        std::printf("BENCH {\"bench\":\"micro_wire_transport\","
                    "\"wire\":\"%s\",\"rtt_us\":%.2f,"
                    "\"frame_bytes\":%zu,\"throughput_mb_s\":%.1f,"
                    "\"backlog_drops\":%llu}\n",
            name, rtt, tp_bytes, tput, static_cast<unsigned long long>(drops));
    };

    report("sim", [] {
        coal::net::cost_model model;
        return std::make_unique<coal::net::sim_network>(2, model);
    });
    report("uds", [] {
        coal::net::socket_params p;
        p.kind = coal::net::socket_params::family::uds;
        return std::make_unique<coal::net::socket_transport>(p, 2);
    });
    report("tcp", [] {
        coal::net::socket_params p;
        p.kind = coal::net::socket_params::family::tcp;
        return std::make_unique<coal::net::socket_transport>(p, 2);
    });
}

}    // namespace

int main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    report_pool_fit();
    report_zero_copy_pipeline();
    report_enqueue_contention();
    report_receive_pipeline();
    report_peer_lookup_contention();
    report_crc32c();
    report_wire_transport();
    return 0;
}
