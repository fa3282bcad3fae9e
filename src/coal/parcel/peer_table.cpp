#include <coal/parcel/peer_table.hpp>

namespace coal::parcel {

peer_table::peer_table(std::uint32_t num_localities)
  : entries_(num_localities)
{
    for (std::uint32_t id = 0; id != num_localities; ++id)
        entries_[id].id = id;
}

peer_state& peer_table::create(peer_entry& e, std::uint32_t self_epoch)
{
    COAL_ASSERT(e.live == nullptr);
    e.live = std::make_unique<peer_state>();
    e.live->link_epoch = self_epoch;
    active_.fetch_add(1, std::memory_order_relaxed);
    return *e.live;
}

void peer_table::reset(peer_entry& e)
{
    if (e.live)
    {
        e.live.reset();
        active_.fetch_sub(1, std::memory_order_relaxed);
    }
}

void due_ring::schedule(peer_entry& entry, std::int64_t due_ns)
{
    if (due_ns == std::numeric_limits<std::int64_t>::max())
        return;
    if (due_ns < 1)
        due_ns = 1;
    std::int64_t cur = entry.ring_due.load(std::memory_order_relaxed);
    while (due_ns < cur)
    {
        if (entry.ring_due.compare_exchange_weak(
                cur, due_ns, std::memory_order_acq_rel))
        {
            // Park on the staging list; only the drainer files items
            // into buckets (see the class comment — bucketing here
            // would strand past-due deadlines behind the cursor).
            std::lock_guard lock(staging_lock_);
            staged_.push_back(item{due_ns, &entry});
            return;
        }
    }
}

std::size_t due_ring::queued() const
{
    std::size_t total = 0;
    {
        std::lock_guard lock(staging_lock_);
        total += staged_.size();
    }
    for (auto const& b : buckets_)
    {
        std::lock_guard lock(b.lock);
        total += b.items.size();
    }
    return total;
}

}    // namespace coal::parcel
