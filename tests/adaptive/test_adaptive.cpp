// Adaptive controller: decision logic driven by real traffic through a
// full runtime (loopback, so timing-independent), plus convergence
// behaviour on the simulated network.

#include <coal/adaptive/adaptive_coalescer.hpp>

#include <coal/apps/toy_app.hpp>
#include <coal/threading/future.hpp>

#include <gtest/gtest.h>

namespace {

using coal::adaptive::adaptive_coalescer;
using coal::adaptive::tuner_config;
using coal::coalescing::coalescing_params;

coal::runtime_config loopback_runtime()
{
    coal::runtime_config cfg;
    cfg.num_localities = 2;
    cfg.transport = "loopback";
    cfg.apply_coalescing_defaults = false;
    return cfg;
}

// Drive `count` round trips of the toy action through the runtime.
void traffic(coal::runtime& rt, std::size_t count)
{
    rt.run_everywhere([count](coal::locality& here) {
        auto const other = here.find_remote_localities().front();
        std::vector<coal::threading::future<std::complex<double>>> vec;
        vec.reserve(count);
        for (std::size_t i = 0; i != count; ++i)
            vec.push_back(here.async<toy_get_cplx_action>(other));
        coal::threading::wait_all(vec);
    });
}

TEST(AdaptiveCoalescer, StartsFromEnabledParams)
{
    coal::runtime rt(loopback_runtime());
    rt.enable_coalescing(
        coal::apps::toy_action_name(), coalescing_params{16, 2000});

    tuner_config cfg;
    cfg.action_name = coal::apps::toy_action_name();
    adaptive_coalescer tuner(rt, cfg);
    EXPECT_EQ(tuner.current_nparcels(), 16u);
    EXPECT_FALSE(tuner.converged());
    EXPECT_EQ(tuner.decisions(), 0u);
    rt.stop();
}

TEST(AdaptiveCoalescer, IdleWindowMakesNoDecision)
{
    coal::runtime rt(loopback_runtime());
    rt.enable_coalescing(
        coal::apps::toy_action_name(), coalescing_params{16, 2000});

    tuner_config cfg;
    cfg.action_name = coal::apps::toy_action_name();
    cfg.min_parcels_per_sample = 64;
    adaptive_coalescer tuner(rt, cfg);

    EXPECT_FALSE(tuner.tick());    // no traffic at all
    ASSERT_EQ(tuner.history().size(), 1u);
    EXPECT_STREQ(tuner.history()[0].event, "idle");
    EXPECT_EQ(tuner.current_nparcels(), 16u);
    rt.stop();
}

TEST(AdaptiveCoalescer, WarmupThenExploreUpward)
{
    coal::runtime rt(loopback_runtime());
    rt.enable_coalescing(
        coal::apps::toy_action_name(), coalescing_params{8, 2000});

    tuner_config cfg;
    cfg.action_name = coal::apps::toy_action_name();
    cfg.min_parcels_per_sample = 10;
    adaptive_coalescer tuner(rt, cfg);

    traffic(rt, 200);
    EXPECT_TRUE(tuner.tick());    // warmup decision: 8 -> 16
    EXPECT_EQ(tuner.current_nparcels(), 16u);
    EXPECT_EQ(tuner.decisions(), 1u);
    ASSERT_GE(tuner.history().size(), 1u);
    EXPECT_STREQ(tuner.history()[0].event, "warmup");
    rt.stop();
}

TEST(AdaptiveCoalescer, RespectsMaxBound)
{
    coal::runtime rt(loopback_runtime());
    rt.enable_coalescing(
        coal::apps::toy_action_name(), coalescing_params{8, 2000});

    tuner_config cfg;
    cfg.action_name = coal::apps::toy_action_name();
    cfg.min_parcels_per_sample = 10;
    cfg.max_nparcels = 16;
    adaptive_coalescer tuner(rt, cfg);

    for (int i = 0; i != 10 && !tuner.converged(); ++i)
    {
        traffic(rt, 200);
        tuner.tick();
        EXPECT_LE(tuner.current_nparcels(), 16u);
    }
    EXPECT_TRUE(tuner.converged());
    rt.stop();
}

TEST(AdaptiveCoalescer, HistoryRecordsRates)
{
    coal::runtime rt(loopback_runtime());
    rt.enable_coalescing(
        coal::apps::toy_action_name(), coalescing_params{8, 2000});

    tuner_config cfg;
    cfg.action_name = coal::apps::toy_action_name();
    cfg.min_parcels_per_sample = 10;
    adaptive_coalescer tuner(rt, cfg);

    traffic(rt, 300);
    tuner.tick();
    auto const history = tuner.history();
    ASSERT_EQ(history.size(), 1u);
    EXPECT_GT(history[0].parcel_rate, 0.0);
    EXPECT_EQ(history[0].nparcels, 8u);
    EXPECT_EQ(history[0].next_nparcels, 16u);
    rt.stop();
}

TEST(AdaptiveCoalescer, IntervalTuningRunsSecondPass)
{
    coal::runtime rt(loopback_runtime());
    rt.enable_coalescing(
        coal::apps::toy_action_name(), coalescing_params{8, 2000});

    tuner_config cfg;
    cfg.action_name = coal::apps::toy_action_name();
    cfg.min_parcels_per_sample = 10;
    cfg.max_nparcels = 32;
    cfg.tune_interval = true;
    cfg.min_interval_us = 1000;
    cfg.max_interval_us = 8000;
    adaptive_coalescer tuner(rt, cfg);

    for (int i = 0; i != 25 && !tuner.converged(); ++i)
    {
        traffic(rt, 200);
        tuner.tick();
    }
    EXPECT_TRUE(tuner.converged());

    // The interval dimension must have been explored: some record shows
    // a next_interval different from the starting 2000 µs.
    bool interval_explored = false;
    for (auto const& rec : tuner.history())
    {
        if (rec.next_interval_us != 2000)
            interval_explored = true;
    }
    EXPECT_TRUE(interval_explored);
    EXPECT_GE(tuner.current_interval_us(), 1000);
    EXPECT_LE(tuner.current_interval_us(), 8000);
    rt.stop();
}

TEST(AdaptiveCoalescer, IntervalStaysFixedWhenPassDisabled)
{
    coal::runtime rt(loopback_runtime());
    rt.enable_coalescing(
        coal::apps::toy_action_name(), coalescing_params{8, 2000});

    tuner_config cfg;
    cfg.action_name = coal::apps::toy_action_name();
    cfg.min_parcels_per_sample = 10;
    cfg.max_nparcels = 32;
    adaptive_coalescer tuner(rt, cfg);

    for (int i = 0; i != 15 && !tuner.converged(); ++i)
    {
        traffic(rt, 200);
        tuner.tick();
    }
    EXPECT_EQ(tuner.current_interval_us(), 2000);
    for (auto const& rec : tuner.history())
        EXPECT_EQ(rec.next_interval_us, 2000);
    rt.stop();
}

TEST(AdaptiveCoalescer, SettlesWithinBoundedDecisions)
{
    // On the REAL cost-model network the toy workload's overhead falls
    // with nparcels, so the controller must settle in a bounded number
    // of decisions (PICS settles in ~5; allow slack for noise).
    coal::runtime_config rc;
    rc.num_localities = 2;
    rc.apply_coalescing_defaults = false;
    coal::runtime rt(rc);
    rt.enable_coalescing(
        coal::apps::toy_action_name(), coalescing_params{1, 2000});

    tuner_config cfg;
    cfg.action_name = coal::apps::toy_action_name();
    cfg.min_parcels_per_sample = 100;
    cfg.max_nparcels = 64;
    // Wide improvement threshold: each ×2 step from nparcels=1 halves
    // the message count, so real improvements dwarf 15% — this keeps VM
    // noise from triggering premature reversals.
    cfg.improvement_threshold = 0.15;
    adaptive_coalescer tuner(rt, cfg);

    int rounds = 0;
    while (!tuner.converged() && rounds < 15)
    {
        traffic(rt, 5000);
        tuner.tick();
        ++rounds;
    }
    EXPECT_TRUE(tuner.converged());
    // It must have moved off the pathological setting.
    EXPECT_GT(tuner.current_nparcels(), 1u);
    EXPECT_LE(tuner.decisions(), 15u);
    rt.stop();
}

}    // namespace
