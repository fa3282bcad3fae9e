// Action machinery: id hashing, registration, marshaling, invocation and
// response generation.

#include <coal/parcel/action.hpp>
#include <coal/parcel/action_registry.hpp>

#include <coal/serialization/buffer_pool.hpp>

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace {

int test_add(int a, int b)
{
    return a + b;
}

std::string test_concat(std::string a, std::string b)
{
    return a + b;
}

int g_side_effect = 0;

void test_fire_and_forget(int x)
{
    g_side_effect = x;
}

std::size_t test_echo_bytes(std::uint64_t, std::vector<std::uint8_t> payload)
{
    return payload.size();
}

}    // namespace

COAL_PLAIN_ACTION(test_add, test_add_action);
COAL_PLAIN_ACTION(test_concat, test_concat_action);
COAL_PLAIN_ACTION(test_fire_and_forget, test_fire_and_forget_action);
COAL_PLAIN_ACTION(test_echo_bytes, test_echo_bytes_action);

namespace {

using coal::parcel::action_registry;
using coal::parcel::hash_action_name;
using coal::parcel::invocation_context;
using coal::parcel::make_response_id;
using coal::parcel::parcel;
using coal::serialization::byte_buffer;
using coal::serialization::shared_buffer;
using coal::serialization::from_bytes;
using coal::serialization::input_archive;

TEST(ActionHash, DeterministicAndDistinct)
{
    EXPECT_EQ(hash_action_name("abc"), hash_action_name("abc"));
    EXPECT_NE(hash_action_name("abc"), hash_action_name("abd"));
    EXPECT_NE(hash_action_name("test_add_action"),
        hash_action_name("test_concat_action"));
}

TEST(ActionHash, ResponseIdIsInvolution)
{
    auto const id = hash_action_name("x");
    EXPECT_NE(make_response_id(id), id);
    EXPECT_EQ(make_response_id(make_response_id(id)), id);
}

TEST(Action, TraitsDeduceSignature)
{
    static_assert(
        std::is_same_v<test_add_action::result_type, int>);
    static_assert(std::is_same_v<test_add_action::args_tuple,
        std::tuple<int, int>>);
    static_assert(
        std::is_same_v<test_fire_and_forget_action::result_type, void>);
    SUCCEED();
}

TEST(Action, RegisteredAtStaticInit)
{
    auto const* entry =
        action_registry::instance().find_by_name("test_add_action");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->id, test_add_action::id());
    EXPECT_FALSE(entry->is_response);

    // The paired response action exists too.
    auto const* response = action_registry::instance().find(
        make_response_id(test_add_action::id()));
    ASSERT_NE(response, nullptr);
    EXPECT_TRUE(response->is_response);
    EXPECT_EQ(response->name, "test_add_action::response");
}

TEST(Action, ReRegistrationIsIdempotent)
{
    auto const id1 = test_add_action::ensure_registered();
    auto const id2 = test_add_action::ensure_registered();
    EXPECT_EQ(id1, id2);
}

TEST(ActionRegistry, FindUnknownGivesNull)
{
    EXPECT_EQ(action_registry::instance().find(0xdeadbeef), nullptr);
    EXPECT_EQ(action_registry::instance().find_by_name("nope"), nullptr);
}

TEST(ActionRegistry, NamesListsRegisteredActions)
{
    auto const names = action_registry::instance().action_names();
    EXPECT_NE(std::find(names.begin(), names.end(), "test_add_action"),
        names.end());
    // Response actions are filtered out.
    for (auto const& n : names)
        EXPECT_EQ(n.find("::response"), std::string::npos);
}

TEST(Action, MarshalUnmarshalInvoke)
{
    parcel p;
    p.source = 1;
    p.dest = 0;
    p.action = test_add_action::id();
    p.continuation = 0;    // fire and forget
    p.arguments = test_add_action::make_arguments(20, 22);

    invocation_context ctx;
    ctx.this_locality = 0;
    ctx.put_parcel = [](parcel&&) { ADD_FAILURE() << "no continuation"; };

    test_add_action::invoke(ctx, std::move(p));    // must not crash
}

// The bulk-echo argument shape (an id plus a 4 KiB payload): its argument
// image must not pin a slab more than a quarter larger than itself, or
// the pool's resident-byte watermarks count slack as load.
TEST(Action, BulkArgumentsPinASlabWithinAQuarterOfTheirImage)
{
    shared_buffer const args = test_echo_bytes_action::make_arguments(
        std::uint64_t{7}, std::vector<std::uint8_t>(4096, 0x5a));
    ASSERT_NE(args.slab(), nullptr);
    EXPECT_GT(args.size(), 4096u);
    EXPECT_LE(args.slab()->capacity * 4, args.size() * 5)
        << "image " << args.size() << " B pinned a "
        << args.slab()->capacity << " B slab";
}

TEST(Action, ContinuationProducesResponseParcel)
{
    parcel p;
    p.source = 3;
    p.dest = 0;
    p.action = test_add_action::id();
    p.continuation = 555;
    p.arguments = test_add_action::make_arguments(40, 2);

    parcel response;
    bool got_response = false;

    invocation_context ctx;
    ctx.this_locality = 0;
    ctx.put_parcel = [&](parcel&& r) {
        response = std::move(r);
        got_response = true;
    };

    test_add_action::invoke(ctx, std::move(p));
    ASSERT_TRUE(got_response);
    EXPECT_EQ(response.source, 0u);
    EXPECT_EQ(response.dest, 3u);    // back to the caller
    EXPECT_EQ(response.action, make_response_id(test_add_action::id()));
    EXPECT_EQ(response.continuation, 555u);
    EXPECT_EQ(from_bytes<int>(response.arguments), 42);
}

TEST(Action, ResponseInvokerCompletesPromise)
{
    parcel response;
    response.source = 0;
    response.dest = 3;
    response.action = make_response_id(test_add_action::id());
    response.continuation = 777;
    response.arguments = coal::serialization::to_bytes(int{99});

    std::uint64_t completed_id = 0;
    int completed_value = 0;

    invocation_context ctx;
    ctx.this_locality = 3;
    ctx.complete_promise = [&](std::uint64_t id, shared_buffer&& payload) {
        completed_id = id;
        completed_value = from_bytes<int>(payload);
    };

    auto const* entry = action_registry::instance().find(response.action);
    ASSERT_NE(entry, nullptr);
    entry->invoke(ctx, std::move(response));
    EXPECT_EQ(completed_id, 777u);
    EXPECT_EQ(completed_value, 99);
}

TEST(Action, StringArgumentsRoundTripThroughInvocation)
{
    parcel p;
    p.source = 0;
    p.dest = 0;
    p.action = test_concat_action::id();
    p.continuation = 1;
    p.arguments = test_concat_action::make_arguments(
        std::string("foo"), std::string("bar"));

    std::string result;
    invocation_context ctx;
    ctx.this_locality = 0;
    ctx.put_parcel = [&](parcel&& r) {
        result = from_bytes<std::string>(r.arguments);
    };

    test_concat_action::invoke(ctx, std::move(p));
    EXPECT_EQ(result, "foobar");
}

TEST(Action, VoidActionRunsAndSendsEmptyResponse)
{
    g_side_effect = 0;
    parcel p;
    p.source = 1;
    p.dest = 0;
    p.action = test_fire_and_forget_action::id();
    p.continuation = 9;
    p.arguments = test_fire_and_forget_action::make_arguments(31337);

    bool empty_response = false;
    invocation_context ctx;
    ctx.this_locality = 0;
    ctx.put_parcel = [&](parcel&& r) {
        empty_response = r.arguments.empty();
    };

    test_fire_and_forget_action::invoke(ctx, std::move(p));
    EXPECT_EQ(g_side_effect, 31337);
    EXPECT_TRUE(empty_response);
}

}    // namespace
