// Coalescing registry: enable/disable per action, response siblings,
// shared live parameters, and the static defaults table behind
// COAL_ACTION_USES_MESSAGE_COALESCING.

#include <coal/core/coalescing_registry.hpp>

#include <coal/core/coalescing_defaults.hpp>
#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/threading/scheduler.hpp>

#include <gtest/gtest.h>

namespace {

void creg_action(int)
{
}

void creg_macro_action_fn(int)
{
}

}    // namespace

COAL_PLAIN_ACTION(creg_action, creg_action_type);
COAL_PLAIN_ACTION(creg_macro_action_fn, creg_macro_action_type);
COAL_ACTION_USES_MESSAGE_COALESCING_PARAMS(creg_macro_action_type, 32, 2500);

namespace {

using coal::coalescing::coalescing_defaults;
using coal::coalescing::coalescing_params;
using coal::coalescing::coalescing_registry;
using coal::net::loopback_transport;
using coal::parcel::make_response_id;
using coal::parcel::parcelhandler;
using coal::threading::scheduler;
using coal::threading::scheduler_config;

struct registry_harness
{
    registry_harness()
      : transport(2)
      , sched(cfg())
      , ph(0, transport, sched)
      , registry(ph)
    {
    }

    ~registry_harness()
    {
        ph.stop();
        sched.stop();
    }

    static scheduler_config cfg()
    {
        scheduler_config c;
        c.num_workers = 1;
        return c;
    }

    loopback_transport transport;
    scheduler sched;
    parcelhandler ph;
    coalescing_registry registry;
};

TEST(CoalescingRegistry, EnableInstallsRequestAndResponseHandlers)
{
    registry_harness h;
    ASSERT_TRUE(h.registry.enable("creg_action_type", {8, 1000}));

    EXPECT_NE(h.ph.message_handler_for(creg_action_type::id()), nullptr);
    EXPECT_NE(h.ph.message_handler_for(
                  make_response_id(creg_action_type::id())),
        nullptr);
    auto const actions = h.registry.coalesced_actions();
    EXPECT_NE(std::find(actions.begin(), actions.end(), "creg_action_type"),
        actions.end());
}

TEST(CoalescingRegistry, EnableWithoutResponses)
{
    registry_harness h;
    ASSERT_TRUE(h.registry.enable("creg_action_type", {8, 1000},
        /*include_responses=*/false));
    EXPECT_NE(h.ph.message_handler_for(creg_action_type::id()), nullptr);
    EXPECT_EQ(h.ph.message_handler_for(
                  make_response_id(creg_action_type::id())),
        nullptr);
}

TEST(CoalescingRegistry, EnableUnknownActionFails)
{
    registry_harness h;
    EXPECT_FALSE(h.registry.enable("no_such_action", {8, 1000}));
}

TEST(CoalescingRegistry, ParamsReadBack)
{
    registry_harness h;
    coalescing_params p{16, 3000, 4096};
    h.registry.enable("creg_action_type", p);
    auto const q = h.registry.params("creg_action_type");
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, p);
    EXPECT_FALSE(h.registry.params("other").has_value());
}

TEST(CoalescingRegistry, SetParamsSharedBetweenRequestAndResponse)
{
    registry_harness h;
    h.registry.enable("creg_action_type", {8, 1000});
    ASSERT_TRUE(h.registry.set_params("creg_action_type", {64, 9000}));

    auto request = h.registry.handler("creg_action_type");
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->params().nparcels, 64u);

    // The response handler sees the same cell.
    auto response_handler = std::static_pointer_cast<
        coal::coalescing::coalescing_message_handler>(
        h.ph.message_handler_for(
            make_response_id(creg_action_type::id())));
    ASSERT_NE(response_handler, nullptr);
    EXPECT_EQ(response_handler->params().nparcels, 64u);
    EXPECT_EQ(response_handler->params().interval_us, 9000);
}

TEST(CoalescingRegistry, SetParamsWithoutEnableFails)
{
    registry_harness h;
    EXPECT_FALSE(h.registry.set_params("creg_action_type", {4, 100}));
}

TEST(CoalescingRegistry, DisableUninstallsButKeepsCounters)
{
    registry_harness h;
    h.registry.enable("creg_action_type", {8, 1000});
    auto counters = h.registry.counters("creg_action_type");
    ASSERT_NE(counters, nullptr);

    ASSERT_TRUE(h.registry.disable("creg_action_type"));
    EXPECT_EQ(h.ph.message_handler_for(creg_action_type::id()), nullptr);
    EXPECT_EQ(h.registry.counters("creg_action_type"), counters);
    EXPECT_TRUE(h.registry.coalesced_actions().empty());

    EXPECT_FALSE(h.registry.disable("never_enabled"));
}

TEST(CoalescingRegistry, ReEnableKeepsCountersAndUpdatesParams)
{
    registry_harness h;
    h.registry.enable("creg_action_type", {8, 1000});
    auto counters_before = h.registry.counters("creg_action_type");
    h.registry.disable("creg_action_type");

    h.registry.enable("creg_action_type", {32, 5000});
    EXPECT_EQ(h.registry.counters("creg_action_type"), counters_before);
    EXPECT_EQ(h.registry.params("creg_action_type")->nparcels, 32u);
}

TEST(CoalescingRegistry, QueuedParcelsAggregates)
{
    registry_harness h;
    h.registry.enable("creg_action_type", {100, 1000000});

    coal::parcel::parcel p;
    p.dest = 1;
    p.action = creg_action_type::id();
    p.arguments = creg_action_type::make_arguments(1);

    auto handler = h.ph.message_handler_for(creg_action_type::id());
    for (int i = 0; i != 5; ++i)
    {
        auto copy = p;
        handler->enqueue(std::move(copy));
    }
    EXPECT_EQ(h.registry.queued_parcels(), 5u);

    h.registry.flush_all();
    EXPECT_EQ(h.registry.queued_parcels(), 0u);
}

TEST(CoalescingDefaults, MacroRegistersEntry)
{
    auto const entries = coalescing_defaults::instance().entries();
    auto it = std::find_if(entries.begin(), entries.end(),
        [](auto const& e) {
            return e.action_name == "creg_macro_action_type";
        });
    ASSERT_NE(it, entries.end());
    EXPECT_EQ(it->params.nparcels, 32u);
    EXPECT_EQ(it->params.interval_us, 2500);
    EXPECT_TRUE(it->include_responses);
}

TEST(CoalescingDefaults, AddUpdatesExistingEntry)
{
    auto& defaults = coalescing_defaults::instance();
    defaults.add("creg_test_temp", {4, 100});
    defaults.add("creg_test_temp", {9, 900}, false);

    auto const entries = defaults.entries();
    int matches = 0;
    for (auto const& e : entries)
    {
        if (e.action_name == "creg_test_temp")
        {
            ++matches;
            EXPECT_EQ(e.params.nparcels, 9u);
            EXPECT_FALSE(e.include_responses);
        }
    }
    EXPECT_EQ(matches, 1);
}

TEST(CoalescingParams, EnabledPredicate)
{
    EXPECT_TRUE((coalescing_params{2, 1}).coalescing_enabled());
    EXPECT_FALSE((coalescing_params{1, 1000}).coalescing_enabled());
    EXPECT_FALSE((coalescing_params{0, 1000}).coalescing_enabled());
    EXPECT_FALSE((coalescing_params{16, 0}).coalescing_enabled());
    EXPECT_FALSE((coalescing_params{16, -5}).coalescing_enabled());
}

}    // namespace
