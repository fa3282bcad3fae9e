#pragma once

/// \file future.hpp
/// Futures and promises — the coal analogue of HPX's LCOs (local control
/// objects).  Every remote action invocation returns one of these.
///
/// The key property for a task-based runtime: `wait()` on a worker thread
/// does not block the OS thread.  It helps its scheduler instead
/// (`scheduler::help_until`), so a one-worker locality can wait for
/// results whose delivery requires more local progress (receiving the
/// response parcel is itself background work), and a waiting worker with
/// nothing to help with counts as idle, so the idle flush can send the
/// requests it is waiting on.
///
/// Continuations attached with `then()` run inline on the thread that
/// fulfils the promise (the parcel-processing task), matching HPX's
/// `hpx::launch::sync` continuation policy.

#include <coal/common/assert.hpp>
#include <coal/common/spinlock.hpp>
#include <coal/common/unique_function.hpp>
#include <coal/threading/scheduler.hpp>

#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

namespace coal::threading {

class future_error : public std::logic_error
{
public:
    using std::logic_error::logic_error;
};

namespace detail {

/// Maps void to a storable unit type.
struct void_result
{
};

template <typename T>
using storage_t = std::conditional_t<std::is_void_v<T>, void_result, T>;

template <typename T>
class shared_state
{
public:
    using value_type = storage_t<T>;

    bool is_ready() const noexcept
    {
        return ready_.load(std::memory_order_acquire);
    }

    template <typename... Args>
    void set_value(Args&&... args)
    {
        std::vector<unique_function<void()>> continuations;
        {
            std::lock_guard lock(mutex_);
            COAL_ASSERT_MSG(!ready_flagged_, "promise already satisfied");
            result_.template emplace<1>(std::forward<Args>(args)...);
            ready_flagged_ = true;
            ready_.store(true, std::memory_order_release);
            continuations.swap(continuations_);
        }
        cv_.notify_all();
        for (auto& c : continuations)
            c();
    }

    void set_exception(std::exception_ptr ep)
    {
        std::vector<unique_function<void()>> continuations;
        {
            std::lock_guard lock(mutex_);
            COAL_ASSERT_MSG(!ready_flagged_, "promise already satisfied");
            result_.template emplace<2>(std::move(ep));
            ready_flagged_ = true;
            ready_.store(true, std::memory_order_release);
            continuations.swap(continuations_);
        }
        cv_.notify_all();
        for (auto& c : continuations)
            c();
    }

    /// Wait until ready.  Worker threads help; others block on the cv.
    void wait()
    {
        if (is_ready())
            return;

        if (scheduler::current() != nullptr)
        {
            scheduler::help_until([this] { return is_ready(); });
            return;
        }

        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return ready_flagged_; });
    }

    /// Wait with timeout; returns readiness.
    bool wait_for_us(std::int64_t timeout_us)
    {
        if (is_ready())
            return true;
        auto const deadline = std::chrono::steady_clock::now() +
            std::chrono::microseconds(timeout_us);

        if (scheduler::current() != nullptr)
        {
            return scheduler::help_until(
                [this] { return is_ready(); }, deadline);
        }

        std::unique_lock lock(mutex_);
        return cv_.wait_until(lock, deadline, [&] { return ready_flagged_; });
    }

    value_type& get()
    {
        wait();
        std::lock_guard lock(mutex_);
        if (result_.index() == 2)
            std::rethrow_exception(std::get<2>(result_));
        return std::get<1>(result_);
    }

    /// Attach a continuation; runs immediately if already ready.
    void add_continuation(unique_function<void()> fn)
    {
        {
            std::lock_guard lock(mutex_);
            if (!ready_flagged_)
            {
                continuations_.push_back(std::move(fn));
                return;
            }
        }
        fn();
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::variant<std::monostate, value_type, std::exception_ptr> result_;
    std::vector<unique_function<void()>> continuations_;
    bool ready_flagged_ = false;
    std::atomic<bool> ready_{false};
};

}    // namespace detail

template <typename T>
class promise;

template <typename T>
class future
{
public:
    future() noexcept = default;

    explicit future(std::shared_ptr<detail::shared_state<T>> state) noexcept
      : state_(std::move(state))
    {
    }

    [[nodiscard]] bool valid() const noexcept
    {
        return state_ != nullptr;
    }

    [[nodiscard]] bool is_ready() const noexcept
    {
        return state_ && state_->is_ready();
    }

    void wait() const
    {
        COAL_ASSERT_MSG(valid(), "wait() on invalid future");
        state_->wait();
    }

    bool wait_for_us(std::int64_t timeout_us) const
    {
        COAL_ASSERT_MSG(valid(), "wait_for_us() on invalid future");
        return state_->wait_for_us(timeout_us);
    }

    /// Retrieve the value (moves it out; single retrieval like std).
    T get()
    {
        COAL_ASSERT_MSG(valid(), "get() on invalid future");
        auto state = std::move(state_);
        if constexpr (std::is_void_v<T>)
        {
            state->get();
            return;
        }
        else
        {
            return std::move(state->get());
        }
    }

    /// Attach a continuation receiving this future (ready) and yielding a
    /// new future of the callback's result.
    template <typename F>
    auto then(F&& f) -> future<std::invoke_result_t<F, future<T>&&>>;

private:
    std::shared_ptr<detail::shared_state<T>> state_;
};

template <typename T>
class promise
{
public:
    promise()
      : state_(std::make_shared<detail::shared_state<T>>())
    {
    }

    promise(promise&&) noexcept = default;
    promise& operator=(promise&&) noexcept = default;
    promise(promise const&) = delete;
    promise& operator=(promise const&) = delete;

    [[nodiscard]] future<T> get_future()
    {
        COAL_ASSERT_MSG(!future_retrieved_, "future already retrieved");
        future_retrieved_ = true;
        return future<T>(state_);
    }

    template <typename U = T>
        requires(!std::is_void_v<U>)
    void set_value(U value)
    {
        state_->set_value(std::move(value));
    }

    template <typename U = T>
        requires(std::is_void_v<U>)
    void set_value()
    {
        state_->set_value();
    }

    void set_exception(std::exception_ptr ep)
    {
        state_->set_exception(std::move(ep));
    }

    [[nodiscard]] std::shared_ptr<detail::shared_state<T>> state() const
    {
        return state_;
    }

private:
    std::shared_ptr<detail::shared_state<T>> state_;
    bool future_retrieved_ = false;
};

template <typename T>
template <typename F>
auto future<T>::then(F&& f) -> future<std::invoke_result_t<F, future<T>&&>>
{
    using R = std::invoke_result_t<F, future<T>&&>;
    COAL_ASSERT_MSG(valid(), "then() on invalid future");

    promise<R> next;
    auto next_future = next.get_future();
    auto state = state_;

    state->add_continuation(
        [state, p = std::move(next), fn = std::forward<F>(f)]() mutable {
            try
            {
                if constexpr (std::is_void_v<R>)
                {
                    fn(future<T>(state));
                    p.set_value();
                }
                else
                {
                    p.set_value(fn(future<T>(state)));
                }
            }
            catch (...)
            {
                p.set_exception(std::current_exception());
            }
        });

    state_.reset();
    return next_future;
}

/// Create an already-satisfied future.
template <typename T>
[[nodiscard]] future<std::decay_t<T>> make_ready_future(T&& value)
{
    promise<std::decay_t<T>> p;
    auto f = p.get_future();
    p.set_value(std::forward<T>(value));
    return f;
}

[[nodiscard]] inline future<void> make_ready_future()
{
    promise<void> p;
    auto f = p.get_future();
    p.set_value();
    return f;
}

/// Wait for every future in the range (HPX's hpx::wait_all).
template <typename T>
void wait_all(std::vector<future<T>>& futures)
{
    for (auto& f : futures)
        f.wait();
}

/// Combine a vector of futures into one future that becomes ready when
/// all inputs are ready (values/exceptions stay in the inputs).
template <typename T>
[[nodiscard]] future<void> when_all(std::vector<future<T>>& futures)
{
    struct all_state
    {
        explicit all_state(std::size_t n)
          : remaining(n)
        {
        }
        std::atomic<std::size_t> remaining;
        promise<void> done;
    };

    auto shared = std::make_shared<all_state>(futures.size());
    auto result = shared->done.get_future();

    if (futures.empty())
    {
        shared->done.set_value();
        return result;
    }

    for (auto& f : futures)
    {
        f.then([shared](future<T>&&) {
            if (shared->remaining.fetch_sub(1, std::memory_order_acq_rel) ==
                1)
            {
                shared->done.set_value();
            }
        });
    }
    return result;
}

}    // namespace coal::threading
