#pragma once

/// \file mpmc_queue.hpp
/// Non-blocking multi-producer/multi-consumer queue: the parcelhandler's
/// outbound send jobs and its inbox of received frames.
///
/// A mutex over a deque is deliberate: the queues sit on the *message*
/// path (already paying modeled per-message costs in the microsecond
/// range), not the per-task fast path, and correctness under shutdown is
/// the priority.  Consumers poll with try_pop() from the progress path;
/// nobody blocks on the queue, so a push wakes no one.  close() makes
/// later pushes fail, so shutdown drops them instead of queueing.

#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace coal {

template <typename T>
class mpmc_queue
{
public:
    /// Push an element; returns false if the queue is already closed
    /// (element is dropped — callers treat that as shutdown).
    bool push(T&& value)
    {
        std::lock_guard lock(mutex_);
        if (closed_)
            return false;
        items_.push_back(std::move(value));
        return true;
    }

    /// Non-blocking pop; empty optional when nothing is queued.
    std::optional<T> try_pop()
    {
        std::lock_guard lock(mutex_);
        if (items_.empty())
            return std::nullopt;
        std::optional<T> out(std::move(items_.front()));
        items_.pop_front();
        return out;
    }

    /// Close the queue: producers start failing; what is queued can
    /// still be drained.
    void close()
    {
        std::lock_guard lock(mutex_);
        closed_ = true;
    }

    [[nodiscard]] bool closed() const
    {
        std::lock_guard lock(mutex_);
        return closed_;
    }

    [[nodiscard]] std::size_t size() const
    {
        std::lock_guard lock(mutex_);
        return items_.size();
    }

    [[nodiscard]] bool empty() const
    {
        return size() == 0;
    }

private:
    mutable std::mutex mutex_;
    std::deque<T> items_;
    bool closed_ = false;
};

}    // namespace coal
