#pragma once

/// \file scheduler.hpp
/// Lightweight-task scheduler: the coal analogue of HPX's threading
/// subsystem.
///
/// Each locality owns one scheduler with N OS worker threads.  Workers
/// run queued tasks (the analogue of HPX threads), stealing from each
/// other when their own deque is empty, and — crucially for this paper —
/// execute registered *background work* between tasks: parcelport send
/// and receive progress, exactly where HPX performs network protocol
/// work.  The time spent in each activity is accounted separately
/// (instrumentation.hpp), which is what makes the paper's
/// `/threads/background-overhead` metric observable from inside the
/// runtime.
///
/// Waiting inside a task must not block the worker: future::wait calls
/// back into `run_pending_task()` (help-while-wait), so a single-worker
/// locality can wait for remote results that require further local
/// progress.
///
/// Idle work and wake-ups (DESIGN.md §8): the scheduler tracks how many
/// of its workers are active.  A worker turns idle when it finds no task
/// and its background work made no progress — in its own loop, or in a
/// help-while-wait loop (`help_scope`).  Once request_idle_work() armed
/// them, the idle hooks (the parcelhandler flushes its coalescing queues
/// there) run on the first worker that finds no worker active.  Idle
/// workers sleep on a wake sequence number that post(), post_n() and
/// wake() bump, so a wake-up racing the decision to sleep is never lost.

#include <coal/common/mpmc_queue.hpp>
#include <coal/common/spinlock.hpp>
#include <coal/common/unique_function.hpp>
#include <coal/threading/instrumentation.hpp>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace coal::threading {

using task_type = unique_function<void()>;

/// Background work hook.  Returns true when it made progress; the idle
/// loop uses that to decide whether to back off.  May be invoked
/// concurrently from several workers and must be thread-safe.
using background_fn = std::function<bool()>;

struct scheduler_config
{
    unsigned num_workers = 1;
    /// Longest sleep of an idle worker (µs).  Posts, transport
    /// deliveries and off-worker sends wake it at once (wake()), so this is
    /// only the polling period for the reliability deadlines that nothing
    /// wakes a worker for: retransmit timeouts, delayed acks, heartbeats
    /// and eviction, all serviced by the parcelhandler's progress().
    std::int64_t idle_sleep_us = 100;
    std::string name = "worker";
};

class scheduler
{
public:
    explicit scheduler(scheduler_config config);
    ~scheduler();

    scheduler(scheduler const&) = delete;
    scheduler& operator=(scheduler const&) = delete;

    /// Enqueue a task.  Called from workers (goes to the local deque) or
    /// any external thread (round-robin across workers).
    void post(task_type task);

    /// Enqueue a batch of tasks: contiguous slices land on successive
    /// worker deques under ONE lock acquisition per deque, and at most
    /// min(n, num_workers) sleeping workers are woken — the bulk-spawn
    /// primitive of the batched receive pipeline.  From a worker thread
    /// the whole batch goes to the local deque, preserving FIFO order
    /// with respect to each other and to prior posts from that worker.
    void post_n(std::vector<task_type>&& tasks);

    /// Execute one pending task or one round of background work.
    /// Returns true if anything ran.  Safe from worker threads (the
    /// help-while-wait path) and from external threads.
    bool run_pending_task();

    /// Register a background work hook.  Thread-safe; takes effect for
    /// subsequent polls.
    void register_background_work(background_fn fn);

    /// Register an idle hook.  The hooks run once per request_idle_work(),
    /// as soon as a worker found no task, its background work made no
    /// progress, and no worker of this scheduler is active (a worker in a
    /// help_scope that finds nothing counts as idle).  A hook returns true
    /// when it created work, so the worker polls again instead of
    /// sleeping.
    void register_idle_work(background_fn fn);

    /// Arm the idle hooks: the caller queued work that only an idle hook
    /// sends (a parcel diverted to a coalescing queue).  From a non-worker
    /// thread this also wakes a worker to run them.  While nothing is
    /// armed, the idle check on every empty spin of help-while-wait is one
    /// relaxed load.
    void request_idle_work();

    /// Wake sleeping workers: work reached this scheduler from outside its
    /// workers (a transport delivery, a flush on the timer thread, a put
    /// from a non-worker thread).  Thread-safe and cheap when nobody
    /// sleeps.
    void wake()
    {
        wake_n(1);
    }

    /// Marks a help-while-wait loop on one of this scheduler's workers:
    /// inside the scope, a run_pending_task() that finds nothing to do
    /// counts the worker as idle (and may run the idle hooks); leaving the
    /// scope counts it as active again, since it returns to its task.  A
    /// no-op on any other thread, so callers need not check.
    class help_scope
    {
    public:
        explicit help_scope(scheduler* sched) noexcept;
        ~help_scope();

        help_scope(help_scope const&) = delete;
        help_scope& operator=(help_scope const&) = delete;

    private:
        scheduler* sched_;
    };

    /// Tasks posted but not yet finished executing.
    [[nodiscard]] std::uint64_t pending_tasks() const noexcept
    {
        return pending_.load(std::memory_order_acquire);
    }

    /// Block the calling (non-worker) thread until no task is pending.
    /// Background work keeps running; new posts restart the wait.
    void wait_idle();

    /// Stop all workers.  Remaining queued tasks are executed first
    /// (drain), then workers join.
    void stop();

    [[nodiscard]] bool stopped() const noexcept
    {
        return stopped_.load(std::memory_order_acquire);
    }

    [[nodiscard]] scheduler_snapshot snapshot() const noexcept
    {
        return instrumentation_.snapshot();
    }

    /// Credit externally performed background (network) time, e.g. a
    /// coalescing flush executed on the timer thread.
    void add_external_background_ns(std::int64_t ns) noexcept
    {
        instrumentation_.add_external_background_ns(ns);
    }

    [[nodiscard]] unsigned num_workers() const noexcept
    {
        return static_cast<unsigned>(workers_.size());
    }

    /// True when the calling thread is one of *this* scheduler's workers.
    [[nodiscard]] bool on_worker_thread() const noexcept;

    /// The scheduler owning the calling worker thread, or nullptr when
    /// called from a non-worker thread.  Used by future::wait to find the
    /// help-while-wait target.
    static scheduler* current();

private:
    struct worker_queue
    {
        spinlock lock;
        std::deque<task_type> tasks;
    };

    void worker_loop(std::size_t index);
    bool try_pop(std::size_t index, task_type& out);
    bool try_steal(std::size_t index, task_type& out);
    void execute(task_type task, worker_counters& counters);
    bool do_background_work(worker_counters* counters);

    /// Count the calling worker idle / active (no-ops when it already
    /// is); only transitions touch the shared counter.
    void mark_idle() noexcept;
    void mark_active() noexcept;

    /// Run the idle hooks if they are armed and no worker is active;
    /// true if one made work.
    bool do_idle_work();

    /// Bump the wake sequence and wake up to `n` sleeping workers.
    void wake_n(std::size_t n);

    /// Sleep until the wake sequence moves past `seen`, stop, or
    /// idle_sleep_us elapses.
    void sleep_until_woken(std::uint64_t seen);

    scheduler_config config_;
    std::uint64_t const uid_;    ///< process-unique (cache invalidation)
    instrumentation instrumentation_;

    std::vector<std::unique_ptr<worker_queue>> queues_;
    std::atomic<std::size_t> next_queue_{0};

    std::vector<background_fn> background_;
    std::atomic<std::uint64_t> background_version_{0};
    mutable spinlock background_lock_;
    /// Idle hooks, guarded by background_lock_; read only when armed.
    std::vector<background_fn> idle_hooks_;

    /// Workers not currently idle; every worker starts active.
    std::atomic<unsigned> active_;
    /// Set by request_idle_work(), cleared by the worker that runs the
    /// idle hooks.
    std::atomic<bool> idle_work_due_{false};

    std::atomic<std::uint64_t> pending_{0};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopped_{false};

    std::mutex idle_mutex_;
    std::condition_variable idle_cv_;

    std::mutex wake_mutex_;
    std::condition_variable wake_cv_;
    std::atomic<std::uint64_t> wake_seq_{0};
    std::atomic<unsigned> sleepers_{0};

    std::vector<std::thread> workers_;
};

}    // namespace coal::threading
