#include <coal/collectives/collectives.hpp>

#include <coal/parcel/action.hpp>
#include <coal/threading/scheduler.hpp>

#include <condition_variable>
#include <map>
#include <mutex>
#include <tuple>

namespace coal::collectives {

namespace detail {

namespace {

/// Process-global mailbox store.  Keys include the destination locality
/// because all localities share the process; in a real distributed build
/// each node would hold only its own slots (the deposit action already
/// executes at the destination, so the seam is preserved).
class mailbox_store
{
public:
    static mailbox_store& instance()
    {
        static mailbox_store store;
        return store;
    }

    void deposit(std::uint32_t dest, std::uint64_t tag, std::uint32_t src,
        serialization::shared_buffer&& bytes)
    {
        {
            std::lock_guard lock(mutex_);
            slots_[key_type{dest, tag, src}] = std::move(bytes);
        }
        cv_.notify_all();
    }

    std::optional<serialization::shared_buffer> try_take(
        std::uint32_t dest, std::uint64_t tag, std::uint32_t src)
    {
        std::lock_guard lock(mutex_);
        auto it = slots_.find(key_type{dest, tag, src});
        if (it == slots_.end())
            return std::nullopt;
        auto bytes = std::move(it->second);
        slots_.erase(it);
        return bytes;
    }

    std::size_t size() const
    {
        std::lock_guard lock(mutex_);
        return slots_.size();
    }

private:
    using key_type = std::tuple<std::uint32_t, std::uint64_t, std::uint32_t>;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<key_type, serialization::shared_buffer> slots_;
};

}    // namespace

void deposit(std::uint32_t dest, std::uint64_t tag, std::uint32_t src,
    serialization::shared_buffer bytes)
{
    mailbox_store::instance().deposit(dest, tag, src, std::move(bytes));
}

}    // namespace detail
}    // namespace coal::collectives

// The deposit action: a plain action like any other, so it participates
// in coalescing when enabled.
COAL_PLAIN_ACTION(
    coal::collectives::detail::deposit, coal_collectives_deposit_action);

namespace coal::collectives {

char const* deposit_action_name()
{
    return coal_collectives_deposit_action::action_name;
}

namespace detail {

serialization::shared_buffer retrieve(
    std::uint32_t dest, std::uint64_t tag, std::uint32_t src)
{
    // Help-while-wait: the deposit we need may be a task queued on this
    // very worker (or require network progress it performs).
    auto& store = mailbox_store::instance();
    std::optional<serialization::shared_buffer> bytes;
    threading::scheduler::help_until([&] {
        bytes = store.try_take(dest, tag, src);
        return bytes.has_value();
    });
    return std::move(*bytes);
}

void send_to(locality& here, agas::locality_id dest, std::uint64_t tag,
    serialization::shared_buffer&& bytes)
{
    here.apply<coal_collectives_deposit_action>(
        dest, dest.value(), tag, here.id().value(), std::move(bytes));
}

std::size_t pending_slots()
{
    return mailbox_store::instance().size();
}

}    // namespace detail

}    // namespace coal::collectives
