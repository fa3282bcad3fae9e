// mpmc_queue carries locality inboxes and outbound send jobs; the tests
// cover FIFO order, close() semantics and concurrent producer/consumer
// conservation.

#include <coal/common/mpmc_queue.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace {

using coal::mpmc_queue;

TEST(MpmcQueue, FifoOrder)
{
    mpmc_queue<int> q;
    for (int i = 0; i != 10; ++i)
        EXPECT_TRUE(q.push(int{i}));
    for (int i = 0; i != 10; ++i)
    {
        auto v = q.try_pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, SizeAndEmpty)
{
    mpmc_queue<int> q;
    EXPECT_TRUE(q.empty());
    q.push(1);
    q.push(2);
    EXPECT_EQ(q.size(), 2u);
    q.try_pop();
    EXPECT_EQ(q.size(), 1u);
}

TEST(MpmcQueue, PushAfterCloseFails)
{
    mpmc_queue<int> q;
    q.push(1);
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.push(2));
    // Drain still works after close.
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 1);
}

TEST(MpmcQueue, MoveOnlyElements)
{
    mpmc_queue<std::unique_ptr<int>> q;
    q.push(std::make_unique<int>(5));
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(**v, 5);
}

TEST(MpmcQueue, ConcurrentConservation)
{
    mpmc_queue<int> q;
    constexpr int producers = 3;
    constexpr int consumers = 3;
    constexpr int per_producer = 20000;

    std::atomic<long long> consumed_sum{0};
    std::atomic<int> consumed_count{0};

    std::vector<std::thread> threads;
    for (int p = 0; p != producers; ++p)
    {
        threads.emplace_back([&q, p] {
            for (int i = 0; i != per_producer; ++i)
                q.push(p * per_producer + i);
        });
    }
    for (int c = 0; c != consumers; ++c)
    {
        threads.emplace_back([&] {
            // Poll until the queue is closed and drained; close() comes
            // after every push, so a closed, empty queue stays empty.
            while (true)
            {
                auto v = q.try_pop();
                if (!v)
                {
                    if (q.closed() && q.empty())
                        return;
                    std::this_thread::yield();
                    continue;
                }
                consumed_sum.fetch_add(*v, std::memory_order_relaxed);
                consumed_count.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    // Join producers (first `producers` threads), then close.
    for (int p = 0; p != producers; ++p)
        threads[static_cast<std::size_t>(p)].join();
    q.close();
    for (int c = 0; c != consumers; ++c)
        threads[static_cast<std::size_t>(producers + c)].join();

    long long const n = static_cast<long long>(producers) * per_producer;
    EXPECT_EQ(consumed_count.load(), n);
    EXPECT_EQ(consumed_sum.load(), n * (n - 1) / 2);
}

}    // namespace
