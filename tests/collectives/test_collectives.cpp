// Collectives built on the parcel layer: broadcast, gather, reduce,
// all_to_all — correctness, tag isolation, coalesced-traffic behaviour,
// and no leaked mailbox slots.

#include <coal/collectives/collectives.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>

namespace {

using coal::locality;
using coal::runtime;
using coal::runtime_config;
using coal::agas::locality_id;
namespace collectives = coal::collectives;

runtime_config loopback(std::uint32_t n)
{
    runtime_config cfg;
    cfg.num_localities = n;
    cfg.transport = "loopback";
    cfg.apply_coalescing_defaults = false;
    return cfg;
}

TEST(Collectives, BroadcastDeliversToAll)
{
    runtime rt(loopback(4));
    std::atomic<int> sum{0};
    rt.run_everywhere([&](locality& here) {
        std::optional<std::string> value;
        if (here.id() == locality_id{1})
            value = "payload";
        auto const got = collectives::broadcast<std::string>(
            rt, here, locality_id{1}, value, /*tag=*/1);
        if (got == "payload")
            ++sum;
    });
    EXPECT_EQ(sum.load(), 4);
    EXPECT_EQ(collectives::detail::pending_slots(), 0u);
    rt.stop();
}

TEST(Collectives, GatherCollectsAtRoot)
{
    runtime rt(loopback(3));
    std::vector<int> gathered;
    rt.run_everywhere([&](locality& here) {
        auto const value = static_cast<int>(here.id().value()) * 10;
        auto out =
            collectives::gather(rt, here, locality_id{0}, value, /*tag=*/2);
        if (here.id() == locality_id{0})
            gathered = std::move(out);
        else
            EXPECT_TRUE(out.empty());
    });
    EXPECT_EQ(gathered, (std::vector<int>{0, 10, 20}));
    rt.stop();
}

TEST(Collectives, ReduceFoldsAtRoot)
{
    runtime rt(loopback(4));
    long long total = -1;
    rt.run_everywhere([&](locality& here) {
        long long const value = here.id().value() + 1;    // 1..4
        auto const out = collectives::reduce(rt, here, locality_id{2}, value,
            [](long long a, long long b) { return a + b; }, /*tag=*/3);
        if (here.id() == locality_id{2})
            total = out;
    });
    EXPECT_EQ(total, 10);
    rt.stop();
}

TEST(Collectives, AllToAllPersonalizedExchange)
{
    runtime rt(loopback(4));
    std::atomic<int> correct{0};
    rt.run_everywhere([&](locality& here) {
        std::uint32_t const me = here.id().value();
        // to_send[j] encodes (me, j).
        std::vector<std::pair<std::uint32_t, std::uint32_t>> to_send;
        for (std::uint32_t j = 0; j != 4; ++j)
            to_send.emplace_back(me, j);

        auto const got =
            collectives::all_to_all(rt, here, to_send, /*tag=*/4);

        bool ok = got.size() == 4;
        for (std::uint32_t i = 0; ok && i != 4; ++i)
            ok = got[i] == std::make_pair(i, me);
        if (ok)
            ++correct;
    });
    EXPECT_EQ(correct.load(), 4);
    EXPECT_EQ(collectives::detail::pending_slots(), 0u);
    rt.stop();
}

TEST(Collectives, DistinctTagsDoNotInterfere)
{
    runtime rt(loopback(2));
    std::atomic<bool> ok{true};
    rt.run_everywhere([&](locality& here) {
        // Issue two rounds back to back with different tags; values must
        // not cross rounds.
        for (std::uint64_t round = 10; round != 14; ++round)
        {
            std::vector<std::uint64_t> to_send{
                round * 100 + here.id().value(),
                round * 100 + here.id().value()};
            auto const got =
                collectives::all_to_all(rt, here, to_send, round);
            std::uint32_t const other = here.id().value() ^ 1u;
            if (got[other] != round * 100 + other)
                ok = false;
        }
    });
    EXPECT_TRUE(ok.load());
    rt.stop();
}

TEST(Collectives, ManyRoundsStress)
{
    runtime rt(loopback(3));
    std::atomic<long long> checksum{0};
    rt.run_everywhere([&](locality& here) {
        long long local = 0;
        for (std::uint64_t round = 0; round != 50; ++round)
        {
            std::vector<long long> to_send(3,
                static_cast<long long>(here.id().value() + round));
            auto const got = collectives::all_to_all(
                rt, here, to_send, 1000 + round);
            local += std::accumulate(got.begin(), got.end(), 0ll);
        }
        checksum += local;
    });
    // Per round: Σ over receivers of Σ over senders (sender + round)
    // = 3 * (0+1+2 + 3*round).
    long long expected = 0;
    for (long long round = 0; round != 50; ++round)
        expected += 3 * (3 + 3 * round);
    EXPECT_EQ(checksum.load(), expected);
    EXPECT_EQ(collectives::detail::pending_slots(), 0u);
    rt.stop();
}

TEST(Collectives, DepositActionCoalesces)
{
    runtime rt(loopback(2));
    rt.enable_coalescing(collectives::deposit_action_name(), {16, 5000});

    rt.run_everywhere([&](locality& here) {
        for (std::uint64_t round = 0; round != 64; ++round)
        {
            std::vector<int> to_send{1, 2};
            (void) collectives::all_to_all(
                rt, here, to_send, 5000 + round);
        }
    });
    rt.quiesce();

    // 2 localities × 64 rounds × 1 remote deposit = 128 parcels; far
    // fewer wire messages.  (Retrieval back-pressure limits batch fill,
    // so only require a clear reduction.)
    auto counters = rt.get_locality(0u).coalescing().counters(
        collectives::deposit_action_name());
    ASSERT_NE(counters, nullptr);
    EXPECT_GT(counters->parcels(), 0u);
    EXPECT_LE(rt.network().stats().messages_sent, 128u);
    rt.stop();
}

TEST(Collectives, ChunkedAllToAllDeliversEveryChunk)
{
    runtime rt(loopback(3));
    std::atomic<int> correct{0};
    constexpr std::size_t chunks_per_dest = 8;

    rt.run_everywhere([&](locality& here) {
        std::uint32_t const me = here.id().value();
        std::vector<std::vector<std::uint64_t>> chunks(3);
        for (std::uint32_t j = 0; j != 3; ++j)
        {
            for (std::size_t k = 0; k != chunks_per_dest; ++k)
                chunks[j].push_back(me * 1000 + j * 100 + k);
        }

        auto const got = collectives::all_to_all_chunked(
            rt, here, chunks, /*base_tag=*/90000);

        bool ok = got.size() == 3;
        for (std::uint32_t i = 0; ok && i != 3; ++i)
        {
            ok = got[i].size() == chunks_per_dest;
            for (std::size_t k = 0; ok && k != chunks_per_dest; ++k)
                ok = got[i][k] == i * 1000 + me * 100 + k;
        }
        if (ok)
            ++correct;
    });
    EXPECT_EQ(correct.load(), 3);
    EXPECT_EQ(collectives::detail::pending_slots(), 0u);
    rt.stop();
}

TEST(Collectives, ChunkedBurstCoalescesWell)
{
    runtime rt(loopback(2));
    rt.enable_coalescing(collectives::deposit_action_name(), {16, 5000});

    rt.run_everywhere([&](locality& here) {
        std::vector<std::vector<int>> chunks(2, std::vector<int>(64, 1));
        (void) collectives::all_to_all_chunked(
            rt, here, chunks, /*base_tag=*/95000);
    });
    rt.quiesce();

    // 64 deposits per direction, bursted before any retrieval: batches
    // fill, so wire messages stay near 64/16 per direction.
    EXPECT_LE(rt.network().stats().messages_sent, 24u);
    rt.stop();
}

TEST(Collectives, LargePayloads)
{
    runtime rt(loopback(2));
    std::atomic<bool> ok{true};
    rt.run_everywhere([&](locality& here) {
        std::vector<std::vector<double>> to_send(
            2, std::vector<double>(10000, 1.0 + here.id().value()));
        auto const got = collectives::all_to_all(rt, here, to_send, 7);
        std::uint32_t const other = here.id().value() ^ 1u;
        if (got[other] != std::vector<double>(10000, 1.0 + other))
            ok = false;
    });
    EXPECT_TRUE(ok.load());
    rt.stop();
}

}    // namespace
