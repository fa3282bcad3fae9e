/// \file bench_micro.cpp
/// google-benchmark microbenchmarks for the substrate the experiments
/// stand on: serialization, message framing, scheduler dispatch, future
/// round trips, counter queries, histogram updates and timer churn.

#include <coal/apps/toy_app.hpp>
#include <coal/common/histogram.hpp>
#include <coal/common/mpmc_queue.hpp>
#include <coal/common/spinlock.hpp>
#include <coal/common/stopwatch.hpp>
#include <coal/core/coalescing_message_handler.hpp>
#include <coal/net/loopback.hpp>
#include <coal/net/sim_network.hpp>
#include <coal/net/socket_transport.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/parcel.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/perf/registry.hpp>
#include <coal/runtime/runtime.hpp>
#include <coal/serialization/archive.hpp>
#include <coal/serialization/buffer_pool.hpp>
#include <coal/threading/future.hpp>
#include <coal/threading/scheduler.hpp>
#include <coal/timing/deadline_timer.hpp>
#include <coal/trace/tracer.hpp>

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <complex>
#include <cstdio>
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

void BM_TimerScheduleCancel(benchmark::State& state)
{
    coal::timing::deadline_timer_service timers;
    for (auto _ : state)
    {
        auto id = timers.schedule_after(1000000, [] {});
        timers.cancel(id);
    }
}
BENCHMARK(BM_TimerScheduleCancel);

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
//
// The host running this may have few cores (CI containers often expose
// one), where no locking scheme can show parallel speedup, so the report
// also emits a *recorded emulation* of 8-thread spread-destination
// throughput built from same-run single-thread measurements:
//
//   baseline: every enqueue runs under the one mutex, so throughput is
//     capped at 1/t_baseline regardless of thread count (generous: lock
//     hand-off cost under contention is ignored);
//   sharded:  spread producers share no lock, and every per-op cost
//     (clock read, shard spinlock, queue push, striped statistics)
//     lands on thread-private or shard-private cachelines, so it
//     parallelizes; the only cross-thread serialization left is the
//     single arrival-order exchange in record_parcel, measured
//     separately.
//
//   modeled_8t_speedup = min(8/t_sharded, 1/t_exchange) / (1/t_baseline)

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
/// enqueue did per parcel except arming the flush timer (first parcel
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
        coal::timing::deadline_timer_service timers;
        coal::coalescing::coalescing_message_handler handler("bench",
            parcels,
            timers, std::make_shared<coal::coalescing::shared_params>(params),
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

    // Recorded emulation of multi-core behaviour from single-thread
    // timings (see the comment block above).  Best of three: this often
    // runs on oversubscribed CI/VM hosts where any single run can eat a
    // scheduling stall.
    auto best_of3 = [](auto&& run) {
        double best = 0.0;
        for (int i = 0; i != 3; ++i)
            best = std::max(best, run());
        return best;
    };
    double const t_sharded_ns =
        1e9 / best_of3([&] { return run_sharded(1, true); });
    double const t_baseline_ns =
        1e9 / best_of3([&] { return run_baseline(1, true); });

    // The serialized cost per enqueue: one acq_rel exchange on the shared
    // last-arrival cell.  Everything else in the sharded enqueue path
    // writes thread- or shard-private cachelines and parallelizes.
    std::atomic<std::int64_t> last{-1};
    constexpr std::size_t atomic_iters = 2000000;
    std::int64_t const a0 = coal::now_ns();
    for (std::size_t i = 0; i != atomic_iters; ++i)
        benchmark::DoNotOptimize(last.exchange(
            static_cast<std::int64_t>(i), std::memory_order_acq_rel));
    std::int64_t const a1 = coal::now_ns();
    double const t_atomics_ns =
        static_cast<double>(a1 - a0) / atomic_iters;

    double const modeled_sharded_8t =
        std::min(8.0 * 1e9 / t_sharded_ns, 1e9 / t_atomics_ns);
    double const modeled_baseline_8t = 1e9 / t_baseline_ns;
    std::printf("BENCH {\"bench\":\"micro_enqueue_contention_model\","
                "\"host_cpus\":%u,"
                "\"sharded_ns_per_op\":%.1f,"
                "\"global_mutex_ns_per_op\":%.1f,"
                "\"shared_exchange_ns_per_op\":%.1f,"
                "\"modeled_8t_spread_parcels_per_sec\":%.0f,"
                "\"modeled_8t_spread_speedup\":%.2f}\n",
        std::thread::hardware_concurrency(), t_sharded_ns, t_baseline_ns,
        t_atomics_ns, modeled_sharded_8t,
        modeled_baseline_8t > 0 ? modeled_sharded_8t / modeled_baseline_8t :
                                  0.0);
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
// Few-core hosts (CI containers often expose one) cannot show parallel
// speedup in the measured rows, so — as with the enqueue-contention
// report — a *recorded emulation* models the 2-worker batch-512 drain
// from same-run single-worker measurements:
//
//   legacy:  every per-parcel cost scales with workers (generous — in
//     reality the per-frame decode serializes on whichever worker popped
//     the frame, and per-parcel posts contend on the deque locks);
//   batched: the per-parcel work (chunk decode + execute) spreads across
//     workers; the only serial residue is the background boundary scan,
//     measured separately per parcel.
//
//   modeled_batched_2w = min(2 × rate_batched_1w, 1 / t_scan_per_parcel)
//   modeled_speedup    = modeled_batched_2w / (2 × rate_legacy_1w)

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
    coal::threading::scheduler_config cfg;
    cfg.num_workers = workers;
    coal::threading::scheduler sched(cfg);
    coal::mpmc_queue<coal::serialization::shared_buffer> inbox;

    sched.register_background_work([&sched, &inbox] {
        auto msg = inbox.try_pop();
        if (!msg)
            return false;
        // Full decode on the background worker, then one task per parcel.
        auto parcels = coal::parcel::decode_message(*msg);
        for (auto& p : parcels)
        {
            sched.post([parcel = std::move(p)]() mutable {
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
    });

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

    // Recorded emulation of the 2-worker batch-512 drain from
    // single-worker measurements (see the comment block above).
    auto best_of3 = [](auto&& run) {
        double best = 0.0;
        for (int i = 0; i != 3; ++i)
            best = std::max(best, run());
        return best;
    };
    double const batched_1w =
        best_of3([&] { return run_batched_receive(1, 512, total); });
    double const legacy_1w =
        best_of3([&] { return run_legacy_receive(1, 512, total); });

    // Serial residue of the batched path: the per-parcel share of the
    // background boundary scan.
    auto const frame =
        coal::parcel::encode_message(make_sink_parcels(512)).flatten_copy();
    constexpr int scan_iters = 2000;
    std::int64_t const s0 = coal::now_ns();
    for (int i = 0; i != scan_iters; ++i)
    {
        auto offsets = coal::parcel::scan_parcel_offsets(frame, 512, 128);
        benchmark::DoNotOptimize(offsets.data());
    }
    std::int64_t const s1 = coal::now_ns();
    double const t_scan_pp =
        static_cast<double>(s1 - s0) / (scan_iters * 512.0);

    double const modeled_batched_2w =
        std::min(2.0 * batched_1w, 1e9 / t_scan_pp);
    double const modeled_legacy_2w = 2.0 * legacy_1w;
    std::printf("BENCH {\"bench\":\"micro_receive_pipeline_model\","
                "\"host_cpus\":%u,\"batch\":512,"
                "\"batched_1w_parcels_per_sec\":%.0f,"
                "\"legacy_1w_parcels_per_sec\":%.0f,"
                "\"scan_ns_per_parcel\":%.2f,"
                "\"modeled_2w_batched_parcels_per_sec\":%.0f,"
                "\"modeled_2w_speedup\":%.2f}\n",
        std::thread::hardware_concurrency(), batched_1w, legacy_1w, t_scan_pp,
        modeled_batched_2w,
        modeled_legacy_2w > 0 ? modeled_batched_2w / modeled_legacy_2w : 0.0);
}

// ---- timer wheel churn report --------------------------------------------

void report_timer_churn()
{
    for (unsigned threads : {1u, 4u})
    {
        coal::timing::deadline_timer_service timers;
        constexpr std::size_t per_thread = 50000;
        std::atomic<bool> start{false};
        std::vector<std::thread> workers;
        for (unsigned t = 0; t != threads; ++t)
        {
            workers.emplace_back([&] {
                while (!start.load(std::memory_order_acquire))
                    coal::cpu_relax();
                for (std::size_t i = 0; i != per_thread; ++i)
                {
                    auto id = timers.schedule_after(1000000, [] {});
                    timers.cancel(id);
                }
            });
        }
        std::int64_t const t0 = coal::now_ns();
        start.store(true, std::memory_order_release);
        for (auto& w : workers)
            w.join();
        std::int64_t const t1 = coal::now_ns();
        double const pairs_per_sec =
            static_cast<double>(threads * per_thread) * 1e9 /
            static_cast<double>(t1 - t0);
        std::printf("BENCH {\"bench\":\"micro_timer_churn\",\"threads\":%u,"
                    "\"schedule_cancel_pairs_per_sec\":%.0f}\n",
            threads, pairs_per_sec);
    }

    // Fire throughput + accuracy under a bursty load: 20k timers spread
    // over 50ms of deadlines, all landing in the wheel's level 0.
    {
        coal::timing::deadline_timer_service timers;
        constexpr std::size_t count = 20000;
        std::atomic<std::size_t> fired{0};
        std::int64_t const t0 = coal::now_ns();
        for (std::size_t i = 0; i != count; ++i)
        {
            timers.schedule_after(1000 + static_cast<std::int64_t>(i % 50000),
                [&] { fired.fetch_add(1, std::memory_order_relaxed); });
        }
        while (fired.load(std::memory_order_acquire) != count)
            std::this_thread::yield();
        std::int64_t const t1 = coal::now_ns();
        auto const stats = timers.stats();
        std::printf("BENCH {\"bench\":\"micro_timer_fire\",\"timers\":%zu,"
                    "\"fires_per_sec\":%.0f,\"mean_lateness_us\":%.1f,"
                    "\"max_lateness_us\":%.1f}\n",
            count,
            static_cast<double>(count) * 1e9 / static_cast<double>(t1 - t0),
            stats.mean_lateness_us, stats.max_lateness_us);
    }
}

// --- peer-state lookup under contention ------------------------------------
//
// The hot-path operation every send/ack performs: resolve a peer id to
// its protocol state and mutate one field under the narrowest possible
// lock.  Baseline is the pre-sharding design — one unordered_map behind
// one global spinlock — against the sharded store's lock-free snapshot
// lookup + per-peer lock.  Uniform random ids across 4096 peers: the
// baseline serializes every thread on one cacheline, the sharded store
// only collides two threads when they hit the same peer.

void report_peer_lookup_contention()
{
    constexpr std::uint32_t npeers = 4096;
    constexpr std::size_t per_thread = 400000;

    coal::parcel::peer_store store;
    for (std::uint32_t i = 0; i != npeers; ++i)
    {
        auto& e = store.get_or_create(i);
        std::lock_guard lock(e.lock);
        store.hydrate(e, 1);
    }
    for (std::size_t s = 0; s != coal::parcel::peer_store::shard_count; ++s)
        store.refresh_snapshot(s);

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
        double const sharded = run_threads(threads, [&](std::uint32_t id) {
            coal::parcel::peer_entry* e = store.find(id);
            std::lock_guard lock(e->lock);
            benchmark::DoNotOptimize(e->live->next_seq++);
        });
        double const baseline = run_threads(threads, [&](std::uint32_t id) {
            std::lock_guard lock(map_lock);
            auto const it = map.find(id);
            benchmark::DoNotOptimize(it->second->next_seq++);
        });
        std::printf("BENCH {\"bench\":\"micro_peer_lookup\",\"threads\":%u,"
                    "\"peers\":%u,\"sharded_lookups_per_sec\":%.0f,"
                    "\"global_lock_lookups_per_sec\":%.0f,"
                    "\"speedup\":%.2f}\n",
            threads, npeers, sharded, baseline,
            baseline > 0 ? sharded / baseline : 0.0);
    }

    // Recorded emulation of multi-core behaviour from single-thread
    // timings (same technique as micro_enqueue_contention: the threaded
    // rows above only show real scaling on a host with real cores).
    // Under the global lock the WHOLE operation is the critical section
    // — total throughput is capped at one op per t_baseline regardless
    // of thread count (generously ignoring the contention collapse a
    // bouncing lock cacheline adds on real hardware).  The sharded
    // lookup has no shared mutable state at all on the hit path — the
    // snapshot is read-only and the per-peer lock collides with
    // probability ~T/peers — so it scales with the thread count until
    // two threads pick the same peer.
    auto best_of3 = [](auto&& run) {
        double best = 0.0;
        for (int i = 0; i != 3; ++i)
            best = std::max(best, run());
        return best;
    };
    double const t_sharded_ns = 1e9 /
        best_of3([&] {
            return run_threads(1, [&](std::uint32_t id) {
                coal::parcel::peer_entry* e = store.find(id);
                std::lock_guard lock(e->lock);
                benchmark::DoNotOptimize(e->live->next_seq++);
            });
        });
    double const t_baseline_ns = 1e9 /
        best_of3([&] {
            return run_threads(1, [&](std::uint32_t id) {
                std::lock_guard lock(map_lock);
                auto const it = map.find(id);
                benchmark::DoNotOptimize(it->second->next_seq++);
            });
        });
    double const crossover =
        t_baseline_ns > 0 ? t_sharded_ns / t_baseline_ns : 0.0;
    for (unsigned threads : {8u, 16u, 32u, 64u})
    {
        double const modeled_sharded = threads * 1e9 / t_sharded_ns;
        double const modeled_baseline = 1e9 / t_baseline_ns;
        std::printf("BENCH {\"bench\":\"micro_peer_lookup_model\","
                    "\"host_cpus\":%u,\"threads\":%u,"
                    "\"sharded_ns_per_op\":%.1f,"
                    "\"global_lock_ns_per_op\":%.1f,"
                    "\"modeled_sharded_lookups_per_sec\":%.0f,"
                    "\"modeled_global_lock_lookups_per_sec\":%.0f,"
                    "\"modeled_speedup\":%.2f,"
                    "\"crossover_threads\":%.1f}\n",
            std::thread::hardware_concurrency(), threads, t_sharded_ns,
            t_baseline_ns, modeled_sharded, modeled_baseline,
            modeled_sharded / modeled_baseline, crossover);
    }
}

// ---- wire transport RTT / throughput --------------------------------------
//
// One-way latency (half a ping-pong round trip) and bulk throughput over
// the real socket parcelport — UDS and TCP through the kernel's loopback
// stack — next to the simulated transport's numbers, so the BENCH stream
// records what the real wire costs relative to the model the experiments
// run on.

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
    while (pongs.load(std::memory_order_acquire) != 1)
        std::this_thread::yield();

    std::int64_t const t0 = coal::now_ns();
    for (int i = 0; i != rounds; ++i)
    {
        int const seen = pongs.load(std::memory_order_acquire);
        ping();
        while (pongs.load(std::memory_order_acquire) == seen)
            std::this_thread::yield();
    }
    std::int64_t const t1 = coal::now_ns();
    return static_cast<double>(t1 - t0) / (1000.0 * rounds);
}

double wire_throughput_mb_s(
    coal::net::transport& net, std::size_t frames, std::size_t bytes)
{
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
        net.send(0, 1,
            coal::serialization::wire_message(
                coal::serialization::shared_buffer(payload)));
    while (got.load(std::memory_order_acquire) != frames * bytes)
        std::this_thread::yield();
    std::int64_t const t1 = coal::now_ns();
    return static_cast<double>(frames * bytes) * 1e3 /
        static_cast<double>(t1 - t0);
}

void report_wire_transport()
{
    constexpr int rtt_rounds = 2000;
    constexpr std::size_t tp_frames = 4000;
    constexpr std::size_t tp_bytes = 64 * 1024;

    auto report = [&](char const* name, auto&& make) {
        double rtt = 0.0, tput = 0.0;
        {
            auto net = make();
            rtt = wire_rtt_us(*net, rtt_rounds);
            net->drain();
            net->shutdown();
        }
        {
            auto net = make();
            tput = wire_throughput_mb_s(*net, tp_frames, tp_bytes);
            net->drain();
            net->shutdown();
        }
        std::printf("BENCH {\"bench\":\"micro_wire_transport\","
                    "\"wire\":\"%s\",\"rtt_us\":%.2f,"
                    "\"frame_bytes\":%zu,\"throughput_mb_s\":%.1f}\n",
            name, rtt, tp_bytes, tput);
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
    report_zero_copy_pipeline();
    report_enqueue_contention();
    report_receive_pipeline();
    report_timer_churn();
    report_peer_lookup_contention();
    report_wire_transport();
    return 0;
}
