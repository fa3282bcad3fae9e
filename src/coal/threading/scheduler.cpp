#include <coal/threading/scheduler.hpp>

#include <coal/common/assert.hpp>
#include <coal/common/logging.hpp>
#include <coal/common/stopwatch.hpp>

#include <chrono>

namespace coal::threading {

namespace {

// Identifies the worker context of the calling thread, if any.
struct worker_context
{
    scheduler* owner = nullptr;
    std::size_t index = 0;
};

thread_local worker_context t_worker;

std::atomic<std::uint64_t> g_scheduler_uid{1};

}    // namespace

scheduler::scheduler(scheduler_config config)
  : config_(config)
  , uid_(g_scheduler_uid.fetch_add(1, std::memory_order_relaxed))
  , instrumentation_(config.num_workers == 0 ? 1 : config.num_workers)
{
    COAL_ASSERT_MSG(config_.num_workers > 0, "scheduler needs >= 1 worker");

    queues_.reserve(config_.num_workers);
    for (unsigned i = 0; i != config_.num_workers; ++i)
        queues_.push_back(std::make_unique<worker_queue>());

    workers_.reserve(config_.num_workers);
    for (unsigned i = 0; i != config_.num_workers; ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
}

scheduler::~scheduler()
{
    stop();
}

void scheduler::post(task_type task)
{
    COAL_ASSERT_MSG(
        !stopped_.load(std::memory_order_acquire), "post after stop()");
    pending_.fetch_add(1, std::memory_order_acq_rel);

    std::size_t index;
    if (t_worker.owner == this)
    {
        index = t_worker.index;
    }
    else
    {
        index = next_queue_.fetch_add(1, std::memory_order_relaxed) %
            queues_.size();
    }

    {
        std::lock_guard lock(queues_[index]->lock);
        queues_[index]->tasks.push_back(std::move(task));
    }
    wake_cv_.notify_one();
}

void scheduler::post_n(std::vector<task_type>&& tasks)
{
    if (tasks.empty())
        return;
    COAL_ASSERT_MSG(
        !stopped_.load(std::memory_order_acquire), "post_n after stop()");

    std::size_t const n = tasks.size();
    pending_.fetch_add(n, std::memory_order_acq_rel);
    instrumentation_.add_bulk_post(n);

    if (t_worker.owner == this)
    {
        // Whole batch onto the local deque: keeps the batch FIFO with
        // respect to itself and to earlier posts from this worker (the
        // receive pipeline relies on this for per-source order on a
        // single-worker locality).
        auto& q = *queues_[t_worker.index];
        std::lock_guard lock(q.lock);
        for (auto& task : tasks)
            q.tasks.push_back(std::move(task));
    }
    else
    {
        // Contiguous slices round-robin across deques: one lock
        // acquisition per deque, and each worker receives a run of
        // adjacent chunks (adjacent chunks share the frame slab, so
        // slice placement preserves cache locality).
        std::size_t const nq = queues_.size();
        std::size_t const slices = n < nq ? n : nq;
        std::size_t const start =
            next_queue_.fetch_add(slices, std::memory_order_relaxed);
        std::size_t const per = n / slices;
        std::size_t extra = n % slices;
        std::size_t taken = 0;
        for (std::size_t s = 0; s != slices; ++s)
        {
            std::size_t const take = per + (extra != 0 ? 1 : 0);
            if (extra != 0)
                --extra;
            auto& q = *queues_[(start + s) % nq];
            std::lock_guard lock(q.lock);
            for (std::size_t i = 0; i != take; ++i)
                q.tasks.push_back(std::move(tasks[taken + i]));
            taken += take;
        }
    }
    tasks.clear();

    // Wake only as many sleeping workers as there are tasks to run; a
    // full notify_all for a two-task batch would stampede every idle
    // worker through its steal loop for nothing.
    if (n >= workers_.size())
    {
        wake_cv_.notify_all();
    }
    else
    {
        for (std::size_t i = 0; i != n; ++i)
            wake_cv_.notify_one();
    }
}

bool scheduler::try_pop(std::size_t index, task_type& out)
{
    auto& q = *queues_[index];
    std::lock_guard lock(q.lock);
    if (q.tasks.empty())
        return false;
    out = std::move(q.tasks.front());
    q.tasks.pop_front();
    return true;
}

bool scheduler::try_steal(std::size_t thief, task_type& out)
{
    std::size_t const n = queues_.size();
    for (std::size_t offset = 1; offset < n; ++offset)
    {
        auto& victim = *queues_[(thief + offset) % n];
        std::lock_guard lock(victim.lock);
        if (!victim.tasks.empty())
        {
            // Steal from the opposite end to reduce contention with the
            // owner and preserve the owner's locality.
            out = std::move(victim.tasks.back());
            victim.tasks.pop_back();
            return true;
        }
    }
    return false;
}

void scheduler::execute(task_type task, worker_counters& counters)
{
    std::int64_t const t_start = now_ns();
    task();
    std::int64_t const t_exec_end = now_ns();

    // Bookkeeping below (counter updates) is the task-management overhead
    // of Eq. 2.
    counters.exec_time_ns.fetch_add(
        t_exec_end - t_start, std::memory_order_relaxed);
    counters.tasks_executed.fetch_add(1, std::memory_order_relaxed);

    std::int64_t const t_end = now_ns();
    counters.func_time_ns.fetch_add(
        t_end - t_start, std::memory_order_relaxed);

    // Decrement pending_ only after all accounting: a wait_idle() caller
    // woken by this notification must observe a consistent snapshot
    // (func >= exec, all 100 of 100 tasks counted).
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        idle_cv_.notify_all();
}

bool scheduler::do_background_work(worker_counters* counters)
{
    // Hooks are registered once at startup but polled once per task, so
    // each thread keeps a cached snapshot refreshed on version change.
    thread_local std::vector<background_fn> hooks;
    thread_local std::uint64_t hooks_version = ~std::uint64_t{0};
    thread_local std::uint64_t hooks_owner = 0;

    std::uint64_t const version =
        background_version_.load(std::memory_order_acquire);
    if (hooks_version != version || hooks_owner != uid_)
    {
        std::lock_guard lock(background_lock_);
        hooks = background_;
        hooks_version = version;
        hooks_owner = uid_;
    }
    if (hooks.empty())
        return false;

    std::int64_t const t_start = now_ns();
    bool made_progress = false;
    for (auto const& hook : hooks)
    {
        if (hook())
            made_progress = true;
    }
    std::int64_t const elapsed = now_ns() - t_start;

    if (counters != nullptr)
    {
        // Only polls that performed work count toward Σt_bg (Eq. 3/4);
        // empty polls from help-while-wait loops would otherwise inflate
        // the network-overhead metric with plain waiting time.
        if (made_progress)
        {
            counters->background_time_ns.fetch_add(
                elapsed, std::memory_order_relaxed);
        }
        else
        {
            counters->idle_poll_time_ns.fetch_add(
                elapsed, std::memory_order_relaxed);
        }
        counters->background_calls.fetch_add(1, std::memory_order_relaxed);
    }
    else if (made_progress)
    {
        instrumentation_.add_external_background_ns(elapsed);
    }
    return made_progress;
}

void scheduler::worker_loop(std::size_t index)
{
    t_worker.owner = this;
    t_worker.index = index;

    auto& counters = instrumentation_.worker(index);

    while (!stopping_.load(std::memory_order_acquire))
    {
        task_type task;
        if (try_pop(index, task))
        {
            execute(std::move(task), counters);
            // Poll the network once per task so send queues drain even
            // under a task flood.
            do_background_work(&counters);
            continue;
        }
        if (try_steal(index, task))
        {
            counters.tasks_stolen.fetch_add(1, std::memory_order_relaxed);
            execute(std::move(task), counters);
            do_background_work(&counters);
            continue;
        }

        // No tasks: make background progress; if even that was idle,
        // sleep briefly (woken early by post()).
        bool const progressed = do_background_work(&counters);
        if (!progressed)
        {
            counters.idle_loops.fetch_add(1, std::memory_order_relaxed);
            std::unique_lock lock(wake_mutex_);
            wake_cv_.wait_for(
                lock, std::chrono::microseconds(config_.idle_sleep_us));
        }
    }

    // Drain phase: finish whatever is still queued (stop() guarantees no
    // new posts race with this).
    task_type task;
    while (try_pop(index, task) || try_steal(index, task))
    {
        execute(std::move(task), counters);
        do_background_work(&counters);
    }

    t_worker.owner = nullptr;
}

bool scheduler::run_pending_task()
{
    worker_counters* counters = nullptr;
    std::size_t start = 0;
    if (t_worker.owner == this)
    {
        counters = &instrumentation_.worker(t_worker.index);
        start = t_worker.index;
    }

    task_type task;
    std::size_t const n = queues_.size();
    for (std::size_t offset = 0; offset < n; ++offset)
    {
        if (try_pop((start + offset) % n, task))
        {
            if (counters != nullptr)
            {
                execute(std::move(task), *counters);
            }
            else
            {
                // External helper thread: account the run but do not
                // attribute it to a worker block.
                task();
                if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
                    idle_cv_.notify_all();
            }
            return true;
        }
    }
    return do_background_work(counters);
}

void scheduler::register_background_work(background_fn fn)
{
    {
        std::lock_guard lock(background_lock_);
        background_.push_back(std::move(fn));
    }
    background_version_.fetch_add(1, std::memory_order_release);
}

void scheduler::wait_idle()
{
    // Timed re-check avoids a lost wakeup: the decrement in execute() and
    // this wait do not share a lock, so a notify can land between the
    // predicate check and the sleep.
    std::unique_lock lock(idle_mutex_);
    while (pending_.load(std::memory_order_acquire) != 0)
        idle_cv_.wait_for(lock, std::chrono::milliseconds(1));
}

void scheduler::stop()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel))
    {
        // Another stop() already ran (or is running): just make sure the
        // workers are joined before returning.
        for (auto& w : workers_)
        {
            if (w.joinable())
                w.join();
        }
        return;
    }

    wake_cv_.notify_all();
    for (auto& w : workers_)
    {
        if (w.joinable())
            w.join();
    }
    stopped_.store(true, std::memory_order_release);
    idle_cv_.notify_all();
}

bool scheduler::on_worker_thread() const noexcept
{
    return t_worker.owner == this;
}

scheduler* scheduler::current()
{
    return t_worker.owner;
}

}    // namespace coal::threading
