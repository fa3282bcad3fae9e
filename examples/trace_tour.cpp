/// \file trace_tour.cpp
/// Parcel-flow tracing: watch Algorithm 1 make its decisions.  Runs a
/// burst (size-triggered flushes), a trickle (idle flushes and sparse
/// bypasses), and prints the event log plus a flush-reason summary.
///
///     ./build/examples/trace_tour

#include <coal/parcel/action.hpp>
#include <coal/runtime/runtime.hpp>
#include <coal/threading/future.hpp>
#include <coal/trace/tracer.hpp>

#include <cstdio>
#include <thread>

namespace {

int traced_echo(int x)
{
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(traced_echo, traced_echo_action);

int main()
{
    auto& tracer = coal::trace::tracer::global();
    tracer.enable(1 << 12);

    coal::runtime_config cfg;
    cfg.num_localities = 2;
    coal::runtime rt(cfg);
    rt.enable_coalescing("traced_echo_action", {8, 1500});

    rt.run_on(0, [](coal::locality& here) {
        auto const other = here.find_remote_localities().front();

        // Dense burst: queues fill, size-triggered flushes.
        std::vector<coal::threading::future<int>> futures;
        for (int i = 0; i != 20; ++i)
            futures.push_back(here.async<traced_echo_action>(other, i));
        coal::threading::wait_all(futures);

        // Sparse trickle: gaps exceed the wait time, so parcels take the
        // bypass, or leave on an idle flush while get() waits.
        for (int i = 0; i != 4; ++i)
        {
            here.async<traced_echo_action>(other, i).get();
            std::this_thread::sleep_for(std::chrono::milliseconds(4));
        }
    });
    rt.stop();
    tracer.disable();

    std::uint64_t
        by_kind[static_cast<int>(coal::trace::event_kind::peer_rejoined) + 1] =
            {};
    auto const events = tracer.snapshot();
    std::printf("captured %zu events (%llu dropped)\n\n", events.size(),
        static_cast<unsigned long long>(tracer.dropped()));

    // Show the first 40 events verbatim...
    std::size_t shown = 0;
    for (auto const& e : events)
    {
        if (shown++ < 40)
            std::printf("%s\n", coal::trace::format_event(e).c_str());
        by_kind[static_cast<int>(e.kind)]++;
    }
    if (events.size() > 40)
        std::printf("... (%zu more)\n", events.size() - 40);

    // ...and the decision summary.
    std::printf("\nflush decisions:\n");
    for (auto kind : {coal::trace::event_kind::flush_size,
             coal::trace::event_kind::flush_timeout,
             coal::trace::event_kind::flush_idle,
             coal::trace::event_kind::flush_forced,
             coal::trace::event_kind::coalescing_bypass})
    {
        std::printf("  %-20s %llu\n", coal::trace::to_string(kind),
            static_cast<unsigned long long>(
                by_kind[static_cast<int>(kind)]));
    }
    return 0;
}
