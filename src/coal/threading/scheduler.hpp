#pragma once

/// \file scheduler.hpp
/// Lightweight-task scheduler: the coal analogue of HPX's threading
/// subsystem.
///
/// Each locality owns one scheduler with N OS worker threads.  Workers
/// run queued tasks (the analogue of HPX threads), stealing from each
/// other when their own deque is empty, and — crucially for this paper —
/// run *background work* between tasks through the one installed
/// progress_hook: parcelport send and receive progress, exactly where HPX
/// performs network protocol work.  The time spent in each activity is
/// accounted separately (instrumentation.hpp), which is what makes the
/// paper's `/threads/background-overhead` metric observable from inside
/// the runtime.
///
/// Waiting inside a task must not block the worker: every wait goes
/// through help_until(), which keeps running this scheduler's tasks and
/// background work (help-while-wait), so a single-worker locality can
/// wait for remote results that require further local progress.
///
/// Idle work and wake-ups (DESIGN.md §8): the scheduler tracks how many
/// of its workers are active.  A worker turns idle when it finds no task
/// and its background work made no progress — in its own loop, or while
/// it helps inside help_until().  Once request_idle_work() armed it, the
/// hook's idle_flush() (the parcelhandler flushes its coalescing queues
/// there) runs on the first worker that finds no worker active.  Idle
/// workers sleep on a wake sequence number that post(), post_n() and
/// wake() bump, so a wake-up racing the decision to sleep is never lost;
/// the hook says how long they may sleep before progress() must run again.

#include <coal/common/spinlock.hpp>
#include <coal/common/unique_function.hpp>
#include <coal/threading/instrumentation.hpp>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace coal::threading {

using task_type = unique_function<void()>;

/// The scheduler's one progress contract with the network layer: the
/// parcelhandler installs itself (install_progress).  progress() and
/// idle_flush() may run concurrently on several workers and on external
/// helper threads.
class progress_hook
{
public:
    /// Background work between tasks.  True when it made progress; the
    /// worker then polls again instead of sleeping.
    virtual bool progress() = 0;

    /// Runs once per request_idle_work(), as soon as a worker found no
    /// task, progress() made none, and no worker of this scheduler is
    /// active (a worker helping inside help_until() that finds nothing
    /// counts as idle).  True when it created work.
    virtual bool idle_flush() = 0;

    /// Longest an idle worker may sleep before progress() must run again
    /// (ns), or 0 to sleep until woken: whatever progress() does that no
    /// wake() announces must be due within this bound.
    [[nodiscard]] virtual std::int64_t max_idle_sleep_ns() const = 0;

protected:
    progress_hook() = default;
    ~progress_hook() = default;
    progress_hook(progress_hook const&) = delete;
    progress_hook& operator=(progress_hook const&) = delete;
};

struct scheduler_config
{
    unsigned num_workers = 1;
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

    /// Install the progress hook (nullptr removes it; the hook must stay
    /// alive until then or until stop()).  Wakes every worker: one may
    /// be asleep with no timeout, and the hook has work to poll.
    void install_progress(progress_hook* hook);

    /// Arm the hook's idle_flush(): the caller queued work that only it
    /// sends (a parcel diverted to a coalescing queue).  From a non-worker
    /// thread this also wakes a worker to run it.  While nothing is armed,
    /// the idle check on every empty spin of help-while-wait is one
    /// relaxed load.
    void request_idle_work();

    /// Help-while-wait until done() returns true or `deadline` passes;
    /// returns done().  On a worker thread this runs its scheduler's
    /// tasks and background work, counting the worker idle while it finds
    /// none (so idle_flush() can send what the waiting task queued), and
    /// backs off to cpu_relax() and then yield() so network threads get
    /// CPU on small machines.  Any other thread only yields.
    template <typename Done>
    static bool help_until(Done&& done,
        std::chrono::steady_clock::time_point deadline =
            std::chrono::steady_clock::time_point::max());

    /// Wake sleeping workers: work reached this scheduler from outside its
    /// workers (a transport delivery, a put from a non-worker thread), or
    /// a sleeping worker's timeout became too long (a new earliest flush
    /// deadline).  Thread-safe and cheap when nobody sleeps.
    void wake()
    {
        wake_n(1);
    }

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

    [[nodiscard]] unsigned num_workers() const noexcept
    {
        return static_cast<unsigned>(workers_.size());
    }

    /// True when the calling thread is one of *this* scheduler's workers.
    [[nodiscard]] bool on_worker_thread() const noexcept;

    /// The scheduler owning the calling worker thread, or nullptr when
    /// called from a non-worker thread.
    static scheduler* current();

private:
    /// Marks help_until() on one of this scheduler's workers: inside the
    /// scope, a run_pending_task() that finds nothing to do counts the
    /// worker as idle (and may run idle_flush()); leaving the scope counts
    /// it as active again, since it returns to its task.  A no-op on any
    /// other thread.
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

    /// Run idle_flush() if it is armed and no worker is active; true if
    /// it made work.
    bool do_idle_work();

    /// Bump the wake sequence and wake up to `n` sleeping workers.
    void wake_n(std::size_t n);

    /// Sleep until the wake sequence moves past `seen`, stop, or the
    /// hook's max_idle_sleep_ns() elapses; a `warm` worker sleeps at most
    /// warm_poll_ns.
    void sleep_until_woken(std::uint64_t seen, bool warm);

    /// A worker that ran work within the last warm_ns re-polls at least
    /// every warm_poll_ns.  Not needed for correctness (every event wakes
    /// a worker): on a VM, a worker blocked with no timeout lets its vCPU
    /// halt long enough to be descheduled by the host, and the next
    /// wake-up pays for that.  Without it `paced` lat_p90 read 15-27 %
    /// higher (EXPERIMENTS.md, "One progress path"); a runtime idle for
    /// longer than warm_ns stops polling.
    static constexpr std::int64_t warm_ns = 1'000'000;
    static constexpr std::int64_t warm_poll_ns = 100'000;

    scheduler_config config_;
    instrumentation instrumentation_;

    std::vector<std::unique_ptr<worker_queue>> queues_;
    std::atomic<std::size_t> next_queue_{0};

    std::atomic<progress_hook*> hook_{nullptr};

    /// Workers not currently idle; every worker starts active.
    std::atomic<unsigned> active_;
    /// Set by request_idle_work(), cleared by the worker that runs
    /// idle_flush().
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

template <typename Done>
bool scheduler::help_until(
    Done&& done, std::chrono::steady_clock::time_point deadline)
{
    bool const timed = deadline != std::chrono::steady_clock::time_point::max();
    scheduler* const sched = current();
    help_scope help(sched);
    unsigned idle = 0;
    while (!done())
    {
        if (timed && std::chrono::steady_clock::now() >= deadline)
            return done();
        if (sched != nullptr && sched->run_pending_task())
            idle = 0;
        else if (sched != nullptr && ++idle < 64)
            cpu_relax();
        else
            std::this_thread::yield();
    }
    return true;
}

}    // namespace coal::threading
