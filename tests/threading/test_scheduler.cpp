// Scheduler tests: task execution, stealing, the progress hook,
// instrumentation accounting and shutdown/drain semantics.

#include <coal/threading/scheduler.hpp>

#include <coal/common/stopwatch.hpp>
#include <coal/timing/busy_work.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <latch>
#include <thread>
#include <vector>

namespace {

using coal::threading::scheduler;
using coal::threading::scheduler_config;

scheduler_config make_config(unsigned workers)
{
    scheduler_config cfg;
    cfg.num_workers = workers;
    return cfg;
}

/// Progress hook running `fn` as progress(); idle workers sleep until
/// woken.  Declare it before the scheduler so it outlives the workers.
struct poll_hook final : coal::threading::progress_hook
{
    explicit poll_hook(std::function<bool()> f)
      : fn(std::move(f))
    {
    }
    bool progress() override
    {
        return fn();
    }
    bool idle_flush() override
    {
        return false;
    }
    std::int64_t max_idle_sleep_ns() const override
    {
        return 0;
    }
    std::function<bool()> fn;
};

TEST(Scheduler, ExecutesPostedTasks)
{
    scheduler sched(make_config(2));
    std::atomic<int> count{0};
    constexpr int n = 1000;
    for (int i = 0; i != n; ++i)
        sched.post([&] { ++count; });
    sched.wait_idle();
    EXPECT_EQ(count.load(), n);
}

TEST(Scheduler, PendingTasksTracksLifecycle)
{
    scheduler sched(make_config(1));
    std::latch release(1);
    std::atomic<bool> started{false};

    sched.post([&] {
        started = true;
        release.wait();
    });
    while (!started)
        std::this_thread::yield();
    EXPECT_GE(sched.pending_tasks(), 1u);
    release.count_down();
    sched.wait_idle();
    EXPECT_EQ(sched.pending_tasks(), 0u);
}

TEST(Scheduler, TasksPostedFromTasksRun)
{
    scheduler sched(make_config(1));
    std::atomic<int> depth_reached{0};

    // Chain of 50 tasks, each posting the next.
    std::function<void(int)> spawn = [&](int depth) {
        depth_reached = depth;
        if (depth < 50)
            sched.post([&, depth] { spawn(depth + 1); });
    };
    sched.post([&] { spawn(1); });
    sched.wait_idle();
    EXPECT_EQ(depth_reached.load(), 50);
}

TEST(Scheduler, WorkStealingBalancesLoad)
{
    scheduler sched(make_config(2));
    std::atomic<int> count{0};
    // Post everything from an external thread; round-robin spreads it,
    // and a worker that finishes early steals the rest.
    for (int i = 0; i != 200; ++i)
    {
        sched.post([&] {
            coal::timing::spin_for_us(100);
            ++count;
        });
    }
    sched.wait_idle();
    EXPECT_EQ(count.load(), 200);

    auto const snap = sched.snapshot();
    EXPECT_EQ(snap.tasks_executed, 200u);
}

TEST(Scheduler, OnWorkerThreadDetection)
{
    scheduler sched(make_config(1));
    EXPECT_FALSE(sched.on_worker_thread());
    EXPECT_EQ(scheduler::current(), nullptr);

    std::atomic<bool> on_worker{false};
    std::atomic<scheduler*> current{nullptr};
    sched.post([&] {
        on_worker = sched.on_worker_thread();
        current = scheduler::current();
    });
    sched.wait_idle();
    EXPECT_TRUE(on_worker.load());
    EXPECT_EQ(current.load(), &sched);
}

TEST(Scheduler, BackgroundWorkRunsWhenIdle)
{
    std::atomic<int> polls{0};
    poll_hook hook([&] {
        ++polls;
        return false;
    });
    scheduler sched(make_config(1));
    sched.install_progress(&hook);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_GT(polls.load(), 0);
}

TEST(Scheduler, HookInstalledWhileWorkersSleepRuns)
{
    // With no hook installed, a worker idle for longer than the warm
    // window sleeps with no timeout, so only the wake in
    // install_progress() gets the first poll to run.
    std::atomic<int> polls{0};
    poll_hook hook([&] {
        ++polls;
        return false;
    });
    scheduler sched(make_config(2));
    sched.post([] {});
    sched.wait_idle();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    sched.install_progress(&hook);
    coal::stopwatch deadline;
    while (polls.load() < 2 && deadline.elapsed_ms() < 1000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(polls.load(), 2) << "a sleeping worker missed the install";
}

TEST(Scheduler, BackgroundWorkRunsBetweenTasks)
{
    std::atomic<int> polls{0};
    poll_hook hook([&] {
        ++polls;
        return false;
    });
    scheduler sched(make_config(1));
    sched.install_progress(&hook);
    int const before = polls.load();
    for (int i = 0; i != 100; ++i)
        sched.post([] { coal::timing::spin_for_us(10); });
    sched.wait_idle();
    // At least one poll per executed task.  wait_idle() can return after
    // the last task finished but before that task's post-execution
    // background poll ran, so give the worker a moment to catch up
    // instead of asserting an instantaneous count.
    coal::stopwatch deadline;
    while (polls.load() - before < 100 && deadline.elapsed_ms() < 2000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(polls.load() - before, 100);
}

TEST(Scheduler, BackgroundTimeIsAccountedSeparately)
{
    poll_hook hook([] {
        coal::timing::spin_for_us(200);
        return true;    // "did work": counts toward Σt_bg
    });
    scheduler sched(make_config(1));
    sched.install_progress(&hook);

    for (int i = 0; i != 50; ++i)
        sched.post([] { coal::timing::spin_for_us(50); });
    sched.wait_idle();

    auto const snap = sched.snapshot();
    EXPECT_GT(snap.background_time_ns, 0);
    EXPECT_GT(snap.background_calls, 0u);
    // Task exec time must reflect the 50 µs spins.
    EXPECT_GE(snap.exec_time_ns, 50 * 50 * 1000 * 9 / 10);
    // And background >= 50 polls × 200 µs (one poll per task minimum).
    EXPECT_GE(snap.background_time_ns, 50 * 200 * 1000 * 9 / 10);
}

TEST(Scheduler, IdlePollsDoNotCountAsBackgroundWork)
{
    poll_hook hook([] {
        coal::timing::spin_for_us(100);
        return false;    // found nothing to do
    });
    scheduler sched(make_config(1));
    sched.install_progress(&hook);

    for (int i = 0; i != 20; ++i)
        sched.post([] { coal::timing::spin_for_us(10); });
    sched.wait_idle();

    auto const snap = sched.snapshot();
    // Empty polls land in the idle-poll bucket, not Eq. 3's Σt_bg.
    EXPECT_EQ(snap.background_time_ns, 0);
    EXPECT_GE(snap.idle_poll_time_ns, 20 * 100 * 1000 * 9 / 10);
    EXPECT_GT(snap.background_calls, 0u);
}

TEST(Scheduler, RunPendingTaskFromExternalThread)
{
    scheduler_config cfg = make_config(1);
    scheduler sched(cfg);

    // Saturate the single worker so a task stays queued.
    std::latch hold(1);
    sched.post([&] { hold.wait(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

    std::atomic<bool> ran{false};
    sched.post([&] { ran = true; });

    // The external thread helps with the queued task.
    while (!ran.load())
    {
        if (!sched.run_pending_task())
            std::this_thread::yield();
    }
    EXPECT_TRUE(ran.load());
    hold.count_down();
    sched.wait_idle();
}

TEST(Scheduler, StopDrainsQueuedTasks)
{
    std::atomic<int> count{0};
    {
        scheduler sched(make_config(2));
        for (int i = 0; i != 500; ++i)
        {
            sched.post([&] {
                coal::timing::spin_for_us(20);
                ++count;
            });
        }
        sched.stop();
    }
    EXPECT_EQ(count.load(), 500);
}

TEST(Scheduler, StopIsIdempotent)
{
    scheduler sched(make_config(1));
    sched.post([] {});
    sched.stop();
    sched.stop();
    EXPECT_TRUE(sched.stopped());
}

TEST(Scheduler, SnapshotCountsMatchEquationTwoInputs)
{
    scheduler sched(make_config(1));
    for (int i = 0; i != 100; ++i)
        sched.post([] { coal::timing::spin_for_us(30); });
    sched.wait_idle();

    auto const snap = sched.snapshot();
    EXPECT_EQ(snap.tasks_executed, 100u);
    // t_func includes t_exec plus bookkeeping: func >= exec > 0.
    EXPECT_GE(snap.func_time_ns, snap.exec_time_ns);
    EXPECT_GT(snap.exec_time_ns, 0);
    // Eq. 2: average overhead is non-negative and finite.
    EXPECT_GE(snap.average_task_overhead_ns(), 0.0);
    EXPECT_LT(snap.average_task_overhead_ns(), 1e7);
}

TEST(Scheduler, SnapshotSinceComputesDeltas)
{
    scheduler sched(make_config(1));
    for (int i = 0; i != 10; ++i)
        sched.post([] {});
    sched.wait_idle();
    auto const first = sched.snapshot();

    for (int i = 0; i != 5; ++i)
        sched.post([] {});
    sched.wait_idle();
    auto const delta = sched.snapshot().since(first);
    EXPECT_EQ(delta.tasks_executed, 5u);
}

TEST(Scheduler, PostNExecutesAllAndCountsOneBulkPost)
{
    scheduler sched(make_config(4));
    std::atomic<int> count{0};

    std::vector<coal::threading::task_type> tasks;
    for (int i = 0; i != 100; ++i)
        tasks.emplace_back([&count] { ++count; });
    sched.post_n(std::move(tasks));
    sched.wait_idle();

    EXPECT_EQ(count.load(), 100);
    auto const snap = sched.snapshot();
    EXPECT_EQ(snap.bulk_posts, 1u);
    EXPECT_EQ(snap.bulk_posted_tasks, 100u);
    EXPECT_EQ(snap.tasks_executed, 100u);
}

TEST(Scheduler, PostNFromWorkerKeepsFifoOrder)
{
    // On one worker the local deque is FIFO, so tasks posted from inside
    // a task — singly or in bulk — run in submission order.
    scheduler sched(make_config(1));
    std::vector<int> order;
    std::latch done(1);

    sched.post([&] {
        sched.post([&order] { order.push_back(1); });
        std::vector<coal::threading::task_type> bulk;
        bulk.emplace_back([&order] { order.push_back(2); });
        bulk.emplace_back([&order] { order.push_back(3); });
        sched.post_n(std::move(bulk));
        sched.post([&order, &done] {
            order.push_back(4);
            done.count_down();
        });
    });
    done.wait();
    sched.wait_idle();

    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Scheduler, PostNEmptyBatchIsNoOp)
{
    scheduler sched(make_config(2));
    sched.post_n({});
    sched.wait_idle();

    auto const snap = sched.snapshot();
    EXPECT_EQ(snap.bulk_posts, 0u);
    EXPECT_EQ(snap.bulk_posted_tasks, 0u);
    EXPECT_EQ(sched.pending_tasks(), 0u);
}

TEST(Scheduler, PostNBatchesAreStealable)
{
    // A worker-local bulk post lands entirely on that worker's deque; the
    // sleeper at the front pins it, so the other worker must steal to
    // make progress on the rest.
    scheduler sched(make_config(2));
    std::atomic<int> count{0};
    std::latch done(1);

    sched.post([&] {
        std::vector<coal::threading::task_type> bulk;
        bulk.emplace_back(
            [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
        for (int i = 0; i != 50; ++i)
            bulk.emplace_back([&count] { ++count; });
        bulk.emplace_back([&done] { done.count_down(); });
        sched.post_n(std::move(bulk));
    });
    done.wait();
    sched.wait_idle();

    EXPECT_EQ(count.load(), 50);
    EXPECT_GE(sched.snapshot().tasks_stolen, 1u);
}

}    // namespace
