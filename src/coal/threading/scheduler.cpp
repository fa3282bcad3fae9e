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
    bool idle = false;        ///< counted out of the owner's active_
    unsigned helping = 0;     ///< nesting depth of help_scope
};

thread_local worker_context t_worker;

}    // namespace

scheduler::scheduler(scheduler_config config)
  : config_(config)
  , instrumentation_(config.num_workers == 0 ? 1 : config.num_workers)
{
    COAL_ASSERT_MSG(config_.num_workers > 0, "scheduler needs >= 1 worker");

    active_.store(config_.num_workers, std::memory_order_relaxed);
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
    wake_n(1);
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

    wake_n(n);
}

void scheduler::wake_n(std::size_t n)
{
    // Pairs with sleep_until_woken(): the bump and the sleeper count are
    // both seq_cst, so either this thread sees the sleeper or the sleeper
    // sees the bump before it blocks.  Passing through the mutex orders
    // the notify after a sleeper caught between its check and its wait.
    wake_seq_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) == 0)
        return;
    {
        std::lock_guard lock(wake_mutex_);
    }
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

void scheduler::sleep_until_woken(std::uint64_t seen, bool warm)
{
    progress_hook const* const hook = hook_.load(std::memory_order_acquire);
    std::int64_t max_ns = hook != nullptr ? hook->max_idle_sleep_ns() : 0;
    if (warm && (max_ns == 0 || max_ns > warm_poll_ns))
        max_ns = warm_poll_ns;
    auto const woken = [&] {
        return wake_seq_.load(std::memory_order_seq_cst) != seen ||
            stopping_.load(std::memory_order_acquire);
    };
    std::unique_lock lock(wake_mutex_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (max_ns == 0)
        wake_cv_.wait(lock, woken);
    else
        wake_cv_.wait_for(lock, std::chrono::nanoseconds(max_ns), woken);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
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
    progress_hook* const hook = hook_.load(std::memory_order_acquire);
    if (hook == nullptr)
        return false;

    std::int64_t const t_start = now_ns();
    bool const made_progress = hook->progress();
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

void scheduler::mark_idle() noexcept
{
    if (t_worker.idle)
        return;
    t_worker.idle = true;
    active_.fetch_sub(1, std::memory_order_acq_rel);
}

void scheduler::mark_active() noexcept
{
    if (!t_worker.idle)
        return;
    t_worker.idle = false;
    active_.fetch_add(1, std::memory_order_acq_rel);
}

bool scheduler::do_idle_work()
{
    if (!idle_work_due_.load(std::memory_order_relaxed))
        return false;
    // Locality-idle, not worker-idle: idle_flush() flushes queues that
    // every worker fills, so while a sibling still runs a task it may yet
    // add to a batch.  The last worker to go idle reads 0 here.  The flag
    // stays armed until a worker that saw 0 takes it.
    if (active_.load(std::memory_order_relaxed) != 0 ||
        !idle_work_due_.exchange(false, std::memory_order_acq_rel))
        return false;
    progress_hook* const hook = hook_.load(std::memory_order_acquire);
    return hook != nullptr && hook->idle_flush();
}

void scheduler::worker_loop(std::size_t index)
{
    t_worker.owner = this;
    t_worker.index = index;
    t_worker.idle = false;
    t_worker.helping = 0;

    auto& counters = instrumentation_.worker(index);
    std::int64_t idle_since = 0;    // 0 while the worker finds work

    while (!stopping_.load(std::memory_order_acquire))
    {
        // Read before looking for work: a post that lands after the
        // search moves the sequence past this, so the sleep returns.
        std::uint64_t const seen = wake_seq_.load(std::memory_order_seq_cst);

        task_type task;
        if (try_pop(index, task))
        {
            mark_active();
            idle_since = 0;
            execute(std::move(task), counters);
            // Poll the network once per task so send queues drain even
            // under a task flood.
            do_background_work(&counters);
            continue;
        }
        if (try_steal(index, task))
        {
            mark_active();
            idle_since = 0;
            counters.tasks_stolen.fetch_add(1, std::memory_order_relaxed);
            execute(std::move(task), counters);
            do_background_work(&counters);
            continue;
        }

        // No tasks: make background progress; if that was idle too, run
        // idle_flush(), and sleep only if it made no work either.
        mark_idle();
        if (do_background_work(&counters) || do_idle_work())
        {
            idle_since = 0;
            continue;
        }
        counters.idle_loops.fetch_add(1, std::memory_order_relaxed);
        std::int64_t const now = now_ns();
        if (idle_since == 0)
            idle_since = now;
        sleep_until_woken(seen, now - idle_since < warm_ns);
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
                mark_active();
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
    // A helping worker that finds nothing is idle: its task is blocked on
    // the wait, so it adds nothing to a batch until the wait ends.
    bool const helping = counters != nullptr && t_worker.helping != 0;
    if (helping)
        mark_idle();
    if (do_background_work(counters))
        return true;
    return helping && do_idle_work();
}

void scheduler::install_progress(progress_hook* hook)
{
    hook_.store(hook, std::memory_order_release);
    wake_n(workers_.size());
}

void scheduler::request_idle_work()
{
    // Set after the caller queued its work: the worker that clears the
    // flag then finds that work.  Loaded first so a flood of requests
    // only reads the shared line.
    if (!idle_work_due_.load(std::memory_order_relaxed))
        idle_work_due_.store(true, std::memory_order_release);
    if (t_worker.owner != this)
        wake_n(1);
}

scheduler::help_scope::help_scope(scheduler* sched) noexcept
  : sched_(sched != nullptr && t_worker.owner == sched ? sched : nullptr)
{
    if (sched_ != nullptr)
        ++t_worker.helping;
}

scheduler::help_scope::~help_scope()
{
    if (sched_ == nullptr)
        return;
    --t_worker.helping;
    // Back to the waiting task, which may produce again.
    sched_->mark_active();
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

    wake_n(workers_.size());
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
