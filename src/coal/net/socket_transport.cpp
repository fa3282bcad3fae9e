#include <coal/net/socket_transport.hpp>

#include <coal/common/assert.hpp>
#include <coal/common/logging.hpp>
#include <coal/common/stopwatch.hpp>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

namespace coal::net {

namespace {

/// HELLO payload: the rank-exchange handshake.  Fixed little-endian
/// layout, written/read through memcpy of this trivially-copyable view
/// (both ends are the same wire revision once the header validated).
struct hello_payload
{
    std::uint32_t num_localities;
    std::uint32_t first_rank;
    std::uint32_t num_ranks;
    std::uint32_t reserved;
    std::uint64_t registry_digest;
    std::uint64_t nonce;
};

struct barrier_payload
{
    std::uint64_t generation;
    std::uint32_t process;    ///< sender's endpoint index
    std::uint32_t reserved;
};

constexpr std::uint32_t control_locality = 0xffffffffu;

void set_nonblock(int fd)
{
    int const flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_cloexec(int fd)
{
    int const flags = ::fcntl(fd, F_GETFD, 0);
    ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

[[nodiscard]] std::uint64_t random_nonce()
{
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd() ^
        (static_cast<std::uint64_t>(::getpid()) << 16) ^
        static_cast<std::uint64_t>(now_ns());
}

/// Deterministic jitter in [0, limit): hashed from (nonce, attempt) so
/// two processes backing off from the same event do not stampede in
/// lockstep, yet a run is reproducible given its seeds.
[[nodiscard]] std::int64_t jitter_us(
    std::uint64_t nonce, std::uint64_t attempt, std::int64_t limit) noexcept
{
    if (limit <= 0)
        return 0;
    std::uint64_t h = nonce ^ (attempt * 0x9e3779b97f4a7c15ull);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<std::int64_t>(
        h % static_cast<std::uint64_t>(limit));
}

}    // namespace

/// One listening endpoint (a process's doorway).  `address` is the
/// advertised string form; for local endpoints the listener is bound (or
/// adopted) at construction and auto endpoints rewrite `address` with the
/// resolved port / generated path.
struct socket_transport::endpoint_info
{
    std::string address;
    bool is_local = false;
    int listen_fd = -1;
    std::string uds_path;    ///< non-empty: unlink on shutdown

    ::sockaddr_storage addr{};
    ::socklen_t addr_len = 0;
};

/// A frame staged for transmission: pre-encoded header + payload view.
/// The payload buffer is shared by refcount with the caller (retransmit
/// tables keep their own reference); the wire writes it verbatim.
struct socket_transport::out_frame
{
    std::uint8_t header[wire::header_size];
    serialization::shared_buffer payload;
    std::uint32_t src = control_locality;
    std::uint32_t dst = control_locality;
    bool is_data = false;
    bool local_dst = false;

    [[nodiscard]] std::size_t total() const noexcept
    {
        return wire::header_size + payload.size();
    }
};

struct socket_transport::connection
{
    enum class state : std::uint8_t
    {
        idle,          ///< no socket; connects when traffic appears
        connecting,    ///< non-blocking connect in progress
        open,          ///< established; HELLO queued/flowing
        closed,        ///< lost; waiting out the reconnect backoff
    };

    int fd = -1;
    /// Written by the IO thread, read by await_ready() on user threads.
    std::atomic<state> st{state::idle};
    std::uint32_t endpoint_index = 0;
    bool outbound = false;
    bool self_loop = false;        ///< peer nonce == ours (same process)
    /// Outbound: peer HELLO accepted.  Atomic: await_ready() polls it.
    std::atomic<bool> hello_verified{false};
    bool peer_goodbye = false;      ///< graceful close announced
    /// Set by on_frame() when a handshake is rejected: the connection
    /// must be closed, but never from inside the decoder's own callback
    /// (close_connection destroys the decoder mid-feed).  handle_readable
    /// honours it once feed() has returned.
    bool close_requested = false;
    std::uint32_t remote_first_rank = 0;
    std::uint32_t remote_num_ranks = 0;

    /// HELLO bytes go out before anything queued (handshake-first).
    std::vector<std::uint8_t> hello_buf;
    std::size_t hello_off = 0;

    /// Outbound queue: senders push under qlock, the IO thread writes.
    /// The front frame stays queued while partially written (write_off
    /// tracks progress across the header+payload concatenation).
    std::mutex qlock;
    std::deque<out_frame> q;
    std::size_t q_bytes = 0;
    std::size_t write_off = 0;

    std::unique_ptr<wire::frame_decoder> decoder;

    std::int64_t backoff_us = 0;
    std::int64_t retry_at_ns = 0;
    std::uint64_t connect_attempts = 0;
    std::uint32_t next_seq = 0;
};

socket_transport::socket_transport(socket_params params,
    std::uint32_t num_localities, std::uint32_t first_local_rank,
    std::uint32_t num_local_ranks)
  : params_(std::move(params))
  , num_localities_(num_localities)
  , first_rank_(first_local_rank)
  , local_count_(num_local_ranks == 0 ? num_localities : num_local_ranks)
  , nonce_(random_nonce())
  , registry_digest_(params_.registry_digest)
  , handlers_(num_localities)
  , down_(num_localities, 0)
{
    COAL_ASSERT(num_localities_ > 0);
    COAL_ASSERT(first_rank_ + local_count_ <= num_localities_);

    // Build the endpoint table: auto mode invents one endpoint per
    // locality; explicit mode dedupes identical strings (localities of
    // one process share its doorway).
    bool const auto_mode = params_.endpoints.empty();
    if (!auto_mode)
    {
        COAL_ASSERT_MSG(params_.endpoints.size() == num_localities_,
            "socket_params.endpoints must name every locality");
    }

    endpoint_of_locality_.resize(num_localities_);
    for (std::uint32_t rank = 0; rank != num_localities_; ++rank)
    {
        std::string address;
        if (auto_mode)
        {
            if (params_.kind == socket_params::family::tcp)
                address = "127.0.0.1:0";
            else
                address = params_.uds_dir + "/coal-" +
                    std::to_string(::getpid()) + "-" + std::to_string(rank) +
                    ".sock";
        }
        else
        {
            address = params_.endpoints[rank];
        }

        std::uint32_t index = 0;
        if (!auto_mode)
        {
            // Dedup by string: same endpoint, same process.
            for (; index != endpoints_.size(); ++index)
                if (endpoints_[index]->address == address)
                    break;
        }
        else
        {
            index = static_cast<std::uint32_t>(endpoints_.size());
        }

        if (index == endpoints_.size())
        {
            auto ep = std::make_unique<endpoint_info>();
            ep->address = std::move(address);
            ep->is_local = hosts(rank);
            endpoints_.push_back(std::move(ep));
        }
        endpoint_of_locality_[rank] = index;
    }

    process_count_ = static_cast<std::uint32_t>(endpoints_.size());
    self_endpoint_ = endpoint_of_locality_[first_rank_];
    coordinator_endpoint_ = endpoint_of_locality_[0];
    barrier_entered_.assign(endpoints_.size(), 0);

    // Bind every local listener now — bootstrap is crash-safe because a
    // peer that starts late finds our door already open, and we retry
    // *their* door with backoff until it opens.
    bool adopted_inherited = false;
    for (auto& ep : endpoints_)
    {
        if (!ep->is_local)
            continue;

        if (params_.inherited_listen_fd >= 0 && !adopted_inherited)
        {
            ep->listen_fd = params_.inherited_listen_fd;
            adopted_inherited = true;
            set_nonblock(ep->listen_fd);
            continue;
        }

        if (params_.kind == socket_params::family::tcp)
        {
            int const fd = ::socket(AF_INET, SOCK_STREAM, 0);
            COAL_ASSERT_MSG(fd >= 0, "socket() failed");
            int one = 1;
            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

            ::sockaddr_in sa{};
            sa.sin_family = AF_INET;
            auto const colon = ep->address.rfind(':');
            std::string const host = ep->address.substr(0, colon);
            int const port = std::atoi(ep->address.c_str() + colon + 1);
            ::inet_pton(AF_INET, host.c_str(), &sa.sin_addr);
            sa.sin_port = htons(static_cast<std::uint16_t>(port));

            int rc = ::bind(fd, reinterpret_cast<::sockaddr*>(&sa), sizeof sa);
            COAL_ASSERT_MSG(rc == 0, "bind() failed");
            rc = ::listen(fd, 64);
            COAL_ASSERT_MSG(rc == 0, "listen() failed");

            // Auto mode: learn the kernel-assigned port and advertise it.
            ::socklen_t len = sizeof sa;
            ::getsockname(fd, reinterpret_cast<::sockaddr*>(&sa), &len);
            ep->address =
                host + ":" + std::to_string(ntohs(sa.sin_port));

            set_nonblock(fd);
            set_cloexec(fd);
            ep->listen_fd = fd;
        }
        else
        {
            int const fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            COAL_ASSERT_MSG(fd >= 0, "socket(AF_UNIX) failed");

            ::sockaddr_un sa{};
            sa.sun_family = AF_UNIX;
            COAL_ASSERT_MSG(ep->address.size() < sizeof sa.sun_path,
                "uds path too long for sun_path");
            std::strncpy(sa.sun_path, ep->address.c_str(),
                sizeof sa.sun_path - 1);
            ::unlink(sa.sun_path);    // stale socket from a crashed run

            int rc = ::bind(fd, reinterpret_cast<::sockaddr*>(&sa),
                sizeof sa);
            COAL_ASSERT_MSG(rc == 0, "bind(AF_UNIX) failed");
            rc = ::listen(fd, 64);
            COAL_ASSERT_MSG(rc == 0, "listen(AF_UNIX) failed");

            set_nonblock(fd);
            set_cloexec(fd);
            ep->listen_fd = fd;
            ep->uds_path = ep->address;
        }
    }

    // Resolve every endpoint's connect address.
    for (auto& ep : endpoints_)
    {
        if (params_.kind == socket_params::family::tcp)
        {
            auto* sa = reinterpret_cast<::sockaddr_in*>(&ep->addr);
            sa->sin_family = AF_INET;
            auto const colon = ep->address.rfind(':');
            std::string const host = ep->address.substr(0, colon);
            int const port = std::atoi(ep->address.c_str() + colon + 1);
            ::inet_pton(AF_INET, host.c_str(), &sa->sin_addr);
            sa->sin_port = htons(static_cast<std::uint16_t>(port));
            ep->addr_len = sizeof(::sockaddr_in);
        }
        else
        {
            auto* sa = reinterpret_cast<::sockaddr_un*>(&ep->addr);
            sa->sun_family = AF_UNIX;
            COAL_ASSERT_MSG(ep->address.size() < sizeof sa->sun_path,
                "uds path too long for sun_path");
            std::strncpy(sa->sun_path, ep->address.c_str(),
                sizeof sa->sun_path - 1);
            ep->addr_len = sizeof(::sockaddr_un);
        }
    }

    // One outbound connection slot per endpoint (including our own:
    // local traffic rides a real self-loop socket, which is what lets
    // the whole in-process test suite exercise the wire).
    out_conns_.reserve(endpoints_.size());
    for (std::uint32_t i = 0; i != endpoints_.size(); ++i)
    {
        auto c = std::make_unique<connection>();
        c->endpoint_index = i;
        c->outbound = true;
        c->backoff_us = reconnect_initial_us;
        out_conns_.push_back(std::move(c));
    }

    if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0)
        COAL_ASSERT_MSG(false, "pipe2() failed");

    io_thread_ = std::thread([this] { io_loop(); });
}

socket_transport::~socket_transport()
{
    shutdown();
}

void socket_transport::set_delivery_handler(
    std::uint32_t dst, delivery_handler handler)
{
    COAL_ASSERT(dst < num_localities_);
    std::lock_guard lock(mutex_);
    handlers_[dst] = std::move(handler);
}

std::string const& socket_transport::endpoint_of(std::uint32_t locality) const
{
    COAL_ASSERT(locality < num_localities_);
    return endpoints_[endpoint_of_locality_[locality]]->address;
}

void socket_transport::wake() noexcept
{
    char const b = 1;
    [[maybe_unused]] auto r = ::write(wake_pipe_[1], &b, 1);
}

void socket_transport::send(std::uint32_t src, std::uint32_t dst,
    serialization::wire_message&& message)
{
    COAL_ASSERT(src < num_localities_ && dst < num_localities_);

    std::size_t const bytes = message.size();
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);

    bool down;
    {
        std::lock_guard lock(mutex_);
        down = down_[src] != 0 || down_[dst] != 0;
    }
    if (stopping_.load(std::memory_order_acquire) || down)
    {
        messages_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    // The wire is contiguous: flatten the fragment chain exactly once,
    // here (single-fragment messages move their buffer out, zero copy).
    serialization::shared_buffer payload = std::move(message).flatten();
    std::uint32_t const payload_crc =
        wire::crc32c(payload.data(), payload.size());

    // Wire-integrity test seam: damage the outbound bytes *after* the CRC
    // was captured, so the frame reaches the peer checksummed against its
    // pristine content.  The caller's buffer may be shared with a
    // retransmit table, so corruption operates on a private copy — the
    // healing path must stay intact.
    bool corrupt_header = false;
    if (std::uint32_t n = corrupt_payload_.load(std::memory_order_acquire);
        n != 0 && payload.size() != 0 &&
        corrupt_payload_.compare_exchange_strong(n, n - 1))
    {
        serialization::shared_buffer copy(payload.data(), payload.size());
        copy.mutable_data()[copy.size() / 2] ^= 0x40;
        payload = std::move(copy);
    }
    if (std::uint32_t n = corrupt_header_.load(std::memory_order_acquire);
        n != 0 && corrupt_header_.compare_exchange_strong(n, n - 1))
    {
        corrupt_header = true;
    }

    auto& conn = *out_conns_[endpoint_of_locality_[dst]];

    out_frame f;
    f.src = src;
    f.dst = dst;
    f.is_data = true;
    f.local_dst = hosts(dst);
    f.payload = std::move(payload);

    wire::frame_header h;
    h.kind = static_cast<std::uint8_t>(wire::frame_kind::data);
    h.src = src;
    h.dst = dst;
    h.payload_len = static_cast<std::uint32_t>(f.payload.size());
    h.payload_crc = payload_crc;

    {
        std::lock_guard lock(conn.qlock);
        if (conn.q_bytes + f.total() > max_backlog_bytes)
        {
            // Outbound backlog cap: shed instead of buffering without
            // bound while a peer is down.  The reliability layer holds
            // its own copy and retransmits after the link heals.
            wire_backlog_drops_.fetch_add(1, std::memory_order_relaxed);
            messages_dropped_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        h.seq = conn.next_seq++;
        wire::encode_header(h, f.header);
        if (corrupt_header)
            f.header[10] ^= 0x04;    // damages src — header CRC must catch
        conn.q_bytes += f.total();
        queued_frames_.fetch_add(1, std::memory_order_acq_rel);
        conn.q.push_back(std::move(f));
    }
    wake();
}

void socket_transport::enqueue_control(std::uint32_t endpoint_index,
    wire::frame_kind kind, serialization::shared_buffer payload)
{
    auto& conn = *out_conns_[endpoint_index];

    out_frame f;
    f.is_data = false;
    f.payload = std::move(payload);

    wire::frame_header h;
    h.kind = static_cast<std::uint8_t>(kind);
    h.src = control_locality;
    h.dst = control_locality;
    h.payload_len = static_cast<std::uint32_t>(f.payload.size());
    h.payload_crc = wire::crc32c(f.payload.data(), f.payload.size());

    {
        std::lock_guard lock(conn.qlock);
        h.seq = conn.next_seq++;
        wire::encode_header(h, f.header);
        conn.q_bytes += f.total();
        conn.q.push_back(std::move(f));
    }
    wake();
}

void socket_transport::drop_frame_accounting(out_frame const& f)
{
    if (f.is_data)
    {
        queued_frames_.fetch_sub(1, std::memory_order_acq_rel);
        messages_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
}

// ---------------------------------------------------------------------
// IO thread
// ---------------------------------------------------------------------

void socket_transport::start_connect(connection& c, std::int64_t now_ns_)
{
    auto& ep = *endpoints_[c.endpoint_index];

    int const af =
        params_.kind == socket_params::family::tcp ? AF_INET : AF_UNIX;
    int const fd = ::socket(af, SOCK_STREAM, 0);
    if (fd < 0)
    {
        connect_failed(c, now_ns_);
        return;
    }
    set_nonblock(fd);
    set_cloexec(fd);
    if (params_.kind == socket_params::family::tcp)
    {
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }

    ++c.connect_attempts;
    int const rc = ::connect(
        fd, reinterpret_cast<::sockaddr const*>(&ep.addr), ep.addr_len);
    if (rc == 0)
    {
        c.fd = fd;
        finish_connect(c, now_ns_);
        return;
    }
    if (errno == EINPROGRESS)
    {
        c.fd = fd;
        c.st = connection::state::connecting;
        return;
    }
    ::close(fd);
    connect_failed(c, now_ns_);
}

void socket_transport::finish_connect(connection& c, std::int64_t now_ns_)
{
    (void) now_ns_;
    c.st = connection::state::open;
    c.backoff_us = reconnect_initial_us;
    c.peer_goodbye = false;
    c.hello_verified = false;
    wire_connects_.fetch_add(1, std::memory_order_relaxed);

    // A fresh stream gets a fresh decoder (a desync dies with its
    // connection) but keeps no history: the parcel layer's sequencing is
    // what makes reconnection exactly-once, not the socket.
    c.decoder = std::make_unique<wire::frame_decoder>(
        max_frame_bytes,
        [this, &c](wire::frame_header const& h,
            serialization::shared_buffer&& payload) {
            on_frame(c, h, std::move(payload));
        },
        [this, &c](wire::decode_error e) { on_decode_error(c, e); });

    send_hello(c);
}

void socket_transport::connect_failed(connection& c, std::int64_t now_ns_)
{
    if (c.fd >= 0)
    {
        ::close(c.fd);
        c.fd = -1;
    }
    wire_connect_failures_.fetch_add(1, std::memory_order_relaxed);
    c.st = connection::state::closed;
    c.retry_at_ns = now_ns_ + c.backoff_us * 1000 +
        jitter_us(nonce_ ^ c.endpoint_index, c.connect_attempts,
            c.backoff_us / 2 + 1) *
            1000;
    c.backoff_us = std::min(c.backoff_us * 2, reconnect_max_us);
}

void socket_transport::send_hello(connection& c)
{
    hello_payload p{};
    p.num_localities = num_localities_;
    p.first_rank = first_rank_;
    p.num_ranks = local_count_;
    p.registry_digest = registry_digest_;
    p.nonce = nonce_;

    wire::frame_header h;
    h.kind = static_cast<std::uint8_t>(wire::frame_kind::hello);
    h.src = control_locality;
    h.dst = control_locality;
    h.payload_len = sizeof p;
    h.payload_crc = wire::crc32c(&p, sizeof p);
    h.seq = 0;

    c.hello_buf.resize(wire::header_size + sizeof p);
    wire::encode_header(h, c.hello_buf.data());
    std::memcpy(c.hello_buf.data() + wire::header_size, &p, sizeof p);
    c.hello_off = 0;
}

void socket_transport::close_connection(connection& c, bool lost_established)
{
    if (c.fd >= 0)
    {
        ::close(c.fd);
        c.fd = -1;
    }
    if (c.decoder)
    {
        // finish() reports a mid-frame EOF through the error handler, so
        // the truncated counter is maintained there — no double count.
        c.decoder->finish();
        c.decoder.reset();
    }
    c.hello_buf.clear();
    c.hello_off = 0;
    c.hello_verified = false;
    c.close_requested = false;

    if (c.outbound)
    {
        bool retry;
        {
            std::lock_guard lock(c.qlock);
            // A partially-written frame cannot be resumed on a new
            // connection (the receiver will discard the truncated tail);
            // drop it so the wire stays at-most-once and let the
            // reliability layer retransmit its own retained copy.
            if (c.write_off != 0 && !c.q.empty())
            {
                drop_frame_accounting(c.q.front());
                c.q_bytes -= c.q.front().total();
                c.q.pop_front();
            }
            c.write_off = 0;
            retry = !c.q.empty();
        }
        if (lost_established)
        {
            wire_reconnects_.fetch_add(1, std::memory_order_relaxed);
            // Reconnect immediately once, then back off on failures.
            c.retry_at_ns = 0;
        }
        c.st = retry ? connection::state::closed : connection::state::idle;
    }
    else
    {
        c.st = connection::state::closed;    // swept from in_conns_
    }
}

void socket_transport::accept_pending(endpoint_info& ep)
{
    for (;;)
    {
        int const fd = ::accept(ep.listen_fd, nullptr, nullptr);
        if (fd < 0)
        {
            if (errno != EAGAIN && errno != EWOULDBLOCK &&
                errno != ECONNABORTED && errno != EINTR)
                wire_accept_failures_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        set_nonblock(fd);
        set_cloexec(fd);
        if (params_.kind == socket_params::family::tcp)
        {
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        }

        auto c = std::make_unique<connection>();
        c->fd = fd;
        c->st = connection::state::open;
        c->outbound = false;
        c->endpoint_index = static_cast<std::uint32_t>(-1);
        auto* raw = c.get();
        c->decoder = std::make_unique<wire::frame_decoder>(
            max_frame_bytes,
            [this, raw](wire::frame_header const& h,
                serialization::shared_buffer&& payload) {
                on_frame(*raw, h, std::move(payload));
            },
            [this, raw](wire::decode_error e) { on_decode_error(*raw, e); });
        // The acceptor answers with its own HELLO so the connector can
        // verify it reached the process it meant to reach.
        send_hello(*c);
        wire_accepts_.fetch_add(1, std::memory_order_relaxed);
        in_conns_.push_back(std::move(c));
    }
}

void socket_transport::handle_writable(connection& c)
{
    // Handshake-first: nothing leaves before our HELLO.
    while (c.hello_off < c.hello_buf.size())
    {
        auto const n = ::send(c.fd, c.hello_buf.data() + c.hello_off,
            c.hello_buf.size() - c.hello_off, MSG_NOSIGNAL);
        if (n < 0)
        {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                return;
            close_connection(c, true);
            return;
        }
        if (c.hello_off != 0)
            wire_partial_writes_.fetch_add(1, std::memory_order_relaxed);
        c.hello_off += static_cast<std::size_t>(n);
        wire_bytes_sent_.fetch_add(
            static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    }
    if (!c.hello_buf.empty() && c.hello_off == c.hello_buf.size())
    {
        c.hello_buf.clear();
        c.hello_off = 0;
        wire_frames_sent_.fetch_add(1, std::memory_order_relaxed);
    }

    for (;;)
    {
        out_frame* f = nullptr;
        {
            std::lock_guard lock(c.qlock);
            if (c.q.empty())
                return;
            f = &c.q.front();
        }
        // Safe to touch *f without the lock: only the IO thread pops or
        // mutates the front entry; senders only push_back.  (purge_queue
        // never removes a partially-written front either.)

        bool const resumed = c.write_off != 0;
        std::size_t const total = f->total();
        while (c.write_off < total)
        {
            std::uint8_t const* base;
            std::size_t chunk;
            if (c.write_off < wire::header_size)
            {
                base = f->header + c.write_off;
                chunk = wire::header_size - c.write_off;
            }
            else
            {
                std::size_t const off = c.write_off - wire::header_size;
                base = f->payload.data() + off;
                chunk = f->payload.size() - off;
            }
            auto const n = ::send(c.fd, base, chunk, MSG_NOSIGNAL);
            if (n < 0)
            {
                if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
                    return;
                close_connection(c, true);
                return;
            }
            c.write_off += static_cast<std::size_t>(n);
            wire_bytes_sent_.fetch_add(
                static_cast<std::uint64_t>(n), std::memory_order_relaxed);
        }
        if (resumed)
            wire_partial_writes_.fetch_add(1, std::memory_order_relaxed);

        // Frame fully on the wire: custody passes to the kernel (remote
        // destinations) or to the loopback-transit gauge (local ones,
        // released again at delivery).
        wire_frames_sent_.fetch_add(1, std::memory_order_relaxed);
        if (f->is_data)
        {
            queued_frames_.fetch_sub(1, std::memory_order_acq_rel);
            if (f->local_dst)
                loopback_transit_.fetch_add(1, std::memory_order_acq_rel);
        }
        {
            std::lock_guard lock(c.qlock);
            c.q_bytes -= total;
            c.q.pop_front();
            c.write_off = 0;
        }
        drain_cv_.notify_all();
    }
}

void socket_transport::handle_readable(connection& c)
{
    if (!c.decoder)
        return;
    if (c.decoder->buffered_bytes() != 0)
        wire_partial_reads_.fetch_add(1, std::memory_order_relaxed);

    std::uint8_t buf[64 * 1024];
    for (;;)
    {
        auto const n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n > 0)
        {
            wire_bytes_received_.fetch_add(
                static_cast<std::uint64_t>(n), std::memory_order_relaxed);
            if (!c.decoder->feed(buf, static_cast<std::size_t>(n)))
            {
                // Fatal decode error: the stream is unsynchronized.  Cut
                // the connection; reconnect gives both sides a clean one.
                close_connection(c, true);
                return;
            }
            if (c.close_requested)
            {
                // Handshake rejection noted by on_frame(): the close must
                // happen here, outside the decoder's callback, or the
                // decoder would be destroyed while feed() still runs.
                close_connection(c, false);
                return;
            }
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (n < 0 && errno == EINTR)
            continue;
        // EOF or hard error.
        close_connection(c, n == 0 && c.peer_goodbye ? false : true);
        return;
    }
}

void socket_transport::on_decode_error(connection& c, wire::decode_error e)
{
    using wire::decode_error;
    switch (e)
    {
    case decode_error::bad_payload_crc:
        wire_crc_drops_.fetch_add(1, std::memory_order_relaxed);
        // A data frame from our own process was in loopback transit;
        // its CRC death must release the custody slot (conservatively:
        // we cannot read the damaged frame's src, but on a self-loop
        // every data frame is ours).
        if (c.self_loop && release_loopback_slot())
        {
            messages_dropped_.fetch_add(1, std::memory_order_relaxed);
            drain_cv_.notify_all();
        }
        break;
    case decode_error::oversized:
        wire_oversized_drops_.fetch_add(1, std::memory_order_relaxed);
        wire_desync_drops_.fetch_add(1, std::memory_order_relaxed);
        break;
    case decode_error::truncated:
        wire_truncated_drops_.fetch_add(1, std::memory_order_relaxed);
        break;
    default:
        wire_desync_drops_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
}

void socket_transport::on_frame(connection& c, wire::frame_header const& h,
    serialization::shared_buffer&& payload)
{
    // A rejected handshake condemned this connection; ignore anything the
    // decoder still parses out of the same feed() chunk.
    if (c.close_requested)
        return;

    wire_frames_received_.fetch_add(1, std::memory_order_relaxed);

    switch (static_cast<wire::frame_kind>(h.kind))
    {
    case wire::frame_kind::data:
        deliver_data(c, h, std::move(payload));
        break;

    case wire::frame_kind::hello:
    {
        hello_payload p{};
        if (payload.size() != sizeof p)
        {
            wire_handshake_failures_.fetch_add(1, std::memory_order_relaxed);
            // Only a known peer (outbound) failing its handshake dooms
            // bootstrap; a stray client reaching our listener is just
            // closed and counted.
            if (c.outbound)
                ready_failed_.store(true, std::memory_order_release);
            c.close_requested = true;
            break;
        }
        std::memcpy(&p, payload.data(), sizeof p);
        if (p.num_localities != num_localities_ ||
            p.registry_digest != registry_digest_)
        {
            // Geometry or action-registry mismatch: executing this
            // peer's parcels could invoke the wrong actions.  Refuse.
            COAL_LOG_ERROR("wire",
                "handshake rejected: localities %u vs %u, digest %llx vs "
                "%llx",
                p.num_localities, num_localities_,
                static_cast<unsigned long long>(p.registry_digest),
                static_cast<unsigned long long>(registry_digest_));
            wire_handshake_failures_.fetch_add(1, std::memory_order_relaxed);
            if (c.outbound)
                ready_failed_.store(true, std::memory_order_release);
            c.close_requested = true;
            break;
        }
        c.self_loop = p.nonce == nonce_;
        c.remote_first_rank = p.first_rank;
        c.remote_num_ranks = p.num_ranks;
        c.hello_verified = true;
        break;
    }

    case wire::frame_kind::barrier_enter:
    {
        barrier_payload p{};
        if (payload.size() == sizeof p)
        {
            std::memcpy(&p, payload.data(), sizeof p);
            barrier_note_entered(p.process, p.generation);
        }
        break;
    }

    case wire::frame_kind::barrier_release:
    {
        barrier_payload p{};
        if (payload.size() == sizeof p)
        {
            std::memcpy(&p, payload.data(), sizeof p);
            std::uint64_t cur =
                barrier_released_.load(std::memory_order_relaxed);
            while (cur < p.generation &&
                !barrier_released_.compare_exchange_weak(cur, p.generation))
            {
            }
        }
        break;
    }

    case wire::frame_kind::goodbye:
        c.peer_goodbye = true;
        break;
    }
}

/// Clamped decrement of the loopback custody gauge.  drain()'s stall
/// reconciliation can zero the gauge while a frame still sits in kernel
/// buffers; when that frame is delivered afterwards, an unconditional
/// fetch_sub would wrap the unsigned count to ~2^64 and wedge every later
/// drain.  Returns whether a slot was actually released.
bool socket_transport::release_loopback_slot() noexcept
{
    std::uint64_t cur = loopback_transit_.load(std::memory_order_acquire);
    while (cur != 0)
    {
        if (loopback_transit_.compare_exchange_weak(
                cur, cur - 1, std::memory_order_acq_rel))
            return true;
    }
    return false;
}

void socket_transport::deliver_data(connection& c,
    wire::frame_header const& h, serialization::shared_buffer&& payload)
{
    // Release the loopback custody slot first — whatever happens next
    // (delivered or dropped), the frame is no longer in transit.
    if (c.self_loop && release_loopback_slot())
        drain_cv_.notify_all();

    delivery_handler handler;
    bool down;
    {
        std::lock_guard lock(mutex_);
        down = h.src >= num_localities_ || h.dst >= num_localities_ ||
            down_[h.src] != 0 || down_[h.dst] != 0;
        if (!down && h.dst < num_localities_)
            handler = handlers_[h.dst];
    }

    if (down || !handler || stopping_.load(std::memory_order_acquire))
    {
        messages_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }

    messages_delivered_.fetch_add(1, std::memory_order_relaxed);
    bytes_delivered_.fetch_add(payload.size(), std::memory_order_relaxed);
    handler(h.src, std::move(payload));
}

// ---------------------------------------------------------------------
// main loop
// ---------------------------------------------------------------------

std::int64_t socket_transport::next_poll_timeout_ms(
    std::int64_t now_ns_) const noexcept
{
    std::int64_t timeout_ms = 50;
    bool const eager = eager_connect_.load(std::memory_order_acquire);
    for (auto const& cp : out_conns_)
    {
        auto& c = *cp;
        if (c.st != connection::state::closed)
            continue;
        bool has_work;
        {
            std::lock_guard lock(c.qlock);
            has_work = !c.q.empty();
        }
        // A closed connection with nothing to send (and no eager
        // bootstrap) just rests; no point spinning on its retry clock.
        if (!(has_work || eager))
            continue;
        auto const ms = c.retry_at_ns > now_ns_ ?
            (c.retry_at_ns - now_ns_) / 1'000'000 + 1 :
            1;
        timeout_ms = std::min(timeout_ms, ms);
    }
    return timeout_ms;
}

void socket_transport::io_loop()
{
    std::vector<::pollfd> pfds;
    std::vector<connection*> pfd_conns;    // index-aligned; null = listener

    while (!io_stop_.load(std::memory_order_acquire))
    {
        std::int64_t const now = now_ns();

        // Kick idle/closed outbound connections that have work (or that
        // bootstrap wants eagerly connected).
        bool const eager = eager_connect_.load(std::memory_order_acquire);
        for (auto& cp : out_conns_)
        {
            auto& c = *cp;
            bool has_work;
            {
                std::lock_guard lock(c.qlock);
                has_work = !c.q.empty();
            }
            if ((has_work || eager) &&
                (c.st == connection::state::idle ||
                    (c.st == connection::state::closed &&
                        now >= c.retry_at_ns)))
            {
                start_connect(c, now);
            }
        }

        pfds.clear();
        pfd_conns.clear();

        pfds.push_back({wake_pipe_[0], POLLIN, 0});
        pfd_conns.push_back(nullptr);

        for (auto& ep : endpoints_)
        {
            if (ep->is_local && ep->listen_fd >= 0)
            {
                pfds.push_back({ep->listen_fd, POLLIN, 0});
                pfd_conns.push_back(nullptr);
            }
        }
        std::size_t const first_conn = pfds.size();

        auto add_conn = [&](connection& c) {
            if (c.fd < 0)
                return;
            short ev = 0;
            if (c.st == connection::state::connecting)
                ev = POLLOUT;
            else if (c.st == connection::state::open)
            {
                ev = POLLIN;
                bool pending_write = c.hello_off < c.hello_buf.size();
                if (!pending_write)
                {
                    std::lock_guard lock(c.qlock);
                    pending_write = !c.q.empty();
                }
                if (pending_write)
                    ev |= POLLOUT;
            }
            if (ev != 0)
            {
                pfds.push_back({c.fd, ev, 0});
                pfd_conns.push_back(&c);
            }
        };
        for (auto& c : out_conns_)
            add_conn(*c);
        for (auto& c : in_conns_)
            add_conn(*c);

        int const timeout =
            static_cast<int>(next_poll_timeout_ms(now));
        int const nready =
            ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout);
        if (nready < 0 && errno != EINTR)
            break;

        if (pfds[0].revents & POLLIN)
        {
            char buf[256];
            while (::read(wake_pipe_[0], buf, sizeof buf) > 0)
            {
            }
        }

        // Listeners.
        {
            std::size_t i = 1;
            for (auto& ep : endpoints_)
            {
                if (!(ep->is_local && ep->listen_fd >= 0))
                    continue;
                if (pfds[i].revents & POLLIN)
                    accept_pending(*ep);
                ++i;
            }
        }

        for (std::size_t i = first_conn; i != pfds.size(); ++i)
        {
            auto* c = pfd_conns[i];
            if (c == nullptr || c->fd < 0)
                continue;
            short const re = pfds[i].revents;
            if (c->st == connection::state::connecting)
            {
                if (re & (POLLOUT | POLLERR | POLLHUP))
                {
                    int err = 0;
                    ::socklen_t len = sizeof err;
                    ::getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &err, &len);
                    if (err == 0)
                        finish_connect(*c, now);
                    else
                        connect_failed(*c, now);
                }
                continue;
            }
            if (re & (POLLERR | POLLHUP))
            {
                // Half-close still delivers buffered bytes via POLLIN;
                // drain first, the read path notices EOF itself.
                handle_readable(*c);
                if (c->fd >= 0 && !(re & POLLIN))
                    close_connection(*c, true);
                continue;
            }
            if (re & POLLIN)
                handle_readable(*c);
            if (c->fd >= 0 && (re & POLLOUT))
                handle_writable(*c);
        }

        // Opportunistic writes: a sender may have queued onto an open
        // connection after the pollset snapshot.
        for (auto& c : out_conns_)
        {
            if (c->fd >= 0 && c->st == connection::state::open)
                handle_writable(*c);
        }

        // Sweep closed inbound connections.
        in_conns_.erase(
            std::remove_if(in_conns_.begin(), in_conns_.end(),
                [](auto const& c) { return c->fd < 0; }),
            in_conns_.end());

        // Service requests handed over by user threads: the IO thread is
        // the only one allowed to restructure queues or touch fds, so
        // chaos kills and forced drops funnel through here.
        {
            std::vector<std::uint32_t> purges;
            {
                std::lock_guard lock(mutex_);
                purges.swap(pending_purges_);
            }
            for (std::uint32_t locality : purges)
            {
                for (auto& c : out_conns_)
                    purge_queue(*c, locality);
            }
            if (!purges.empty())
                drain_cv_.notify_all();
        }
        if (std::int32_t const ep_index =
                drop_endpoint_.exchange(-1, std::memory_order_acq_rel);
            ep_index >= 0)
        {
            auto& c = *out_conns_[static_cast<std::uint32_t>(ep_index)];
            if (c.fd >= 0 && c.st == connection::state::open)
                close_connection(c, true);
        }

        // Drain reconciliation (see drain()): purge queues that cannot
        // make progress so quiesce never hangs on a dead endpoint.
        if (purge_requested_.exchange(false, std::memory_order_acq_rel))
        {
            for (auto& c : out_conns_)
            {
                if (c->st == connection::state::open)
                    continue;
                std::lock_guard lock(c->qlock);
                while (!c->q.empty())
                {
                    drop_frame_accounting(c->q.front());
                    c->q_bytes -= c->q.front().total();
                    c->q.pop_front();
                }
                c->write_off = 0;
            }
            drain_cv_.notify_all();
        }
    }
}

// ---------------------------------------------------------------------
// barrier / bootstrap
// ---------------------------------------------------------------------

void socket_transport::barrier_note_entered(
    std::uint32_t process, std::uint64_t gen)
{
    std::lock_guard lock(mutex_);
    if (process < barrier_entered_.size() &&
        barrier_entered_[process] < gen)
        barrier_entered_[process] = gen;
    barrier_maybe_release();
}

void socket_transport::barrier_maybe_release()
{
    // Caller holds mutex_.  Only the coordinator releases.
    if (endpoint_of_locality_[0] != self_endpoint_ ||
        !endpoints_[self_endpoint_]->is_local)
        return;

    for (;;)
    {
        std::uint64_t const g = barrier_released_gen_ + 1;
        bool all = barrier_entered_[self_endpoint_] >= g;
        for (std::uint32_t i = 0; all && i != endpoints_.size(); ++i)
        {
            if (!endpoints_[i]->is_local && barrier_entered_[i] < g)
                all = false;
        }
        if (!all)
            return;

        barrier_released_gen_ = g;
        std::uint64_t cur = barrier_released_.load(std::memory_order_relaxed);
        while (
            cur < g && !barrier_released_.compare_exchange_weak(cur, g))
        {
        }

        barrier_payload p{};
        p.generation = g;
        p.process = self_endpoint_;
        for (std::uint32_t i = 0; i != endpoints_.size(); ++i)
        {
            if (endpoints_[i]->is_local)
                continue;
            serialization::shared_buffer buf(&p, sizeof p);
            enqueue_control(
                i, wire::frame_kind::barrier_release, std::move(buf));
        }
    }
}

std::uint64_t socket_transport::enter_barrier()
{
    std::uint64_t gen;
    bool coordinator;
    {
        std::lock_guard lock(mutex_);
        gen = ++barrier_self_gen_;
        coordinator = endpoint_of_locality_[0] == self_endpoint_ &&
            endpoints_[self_endpoint_]->is_local;
        if (coordinator)
        {
            if (barrier_entered_[self_endpoint_] < gen)
                barrier_entered_[self_endpoint_] = gen;
            barrier_maybe_release();
        }
    }
    if (!coordinator)
    {
        barrier_payload p{};
        p.generation = gen;
        p.process = self_endpoint_;
        serialization::shared_buffer buf(&p, sizeof p);
        enqueue_control(endpoint_of_locality_[0],
            wire::frame_kind::barrier_enter, std::move(buf));
    }
    return gen;
}

bool socket_transport::await_ready()
{
    eager_connect_.store(true, std::memory_order_release);
    wake();

    std::int64_t const deadline =
        now_ns() + params_.bootstrap_timeout_ms * 1'000'000;
    for (;;)
    {
        if (ready_failed_.load(std::memory_order_acquire))
            return false;

        bool all = true;
        for (auto const& c : out_conns_)
        {
            if (!(c->st == connection::state::open && c->hello_verified))
            {
                all = false;
                break;
            }
        }
        if (all)
            return true;
        if (now_ns() > deadline)
        {
            COAL_LOG_ERROR("wire", "bootstrap timed out after %lld ms",
                static_cast<long long>(params_.bootstrap_timeout_ms));
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        wake();
    }
}

// ---------------------------------------------------------------------
// lifecycle / chaos / stats
// ---------------------------------------------------------------------

void socket_transport::purge_queue(
    connection& c, std::uint32_t locality_filter)
{
    std::lock_guard lock(c.qlock);
    // Never remove a partially-written front frame: cutting it mid-byte
    // would desynchronize the stream for every frame behind it.
    std::size_t const keep = c.write_off != 0 ? 1 : 0;
    for (std::size_t i = c.q.size(); i-- > keep;)
    {
        auto const& f = c.q[i];
        if (f.is_data &&
            (f.src == locality_filter || f.dst == locality_filter))
        {
            drop_frame_accounting(f);
            c.q_bytes -= f.total();
            c.q.erase(c.q.begin() + static_cast<std::ptrdiff_t>(i));
        }
    }
}

bool socket_transport::set_locality_down(std::uint32_t locality, bool down)
{
    if (locality >= num_localities_)
        return false;
    {
        std::lock_guard lock(mutex_);
        down_[locality] = down ? 1 : 0;
        if (down)
        {
            // Outbound frames already queued toward (or from) the dead
            // locality vanish, mirroring sim_network's wire-heap purge;
            // the IO thread (sole owner of queue structure) does the
            // purge.  Kernel-buffered frames are caught by the
            // delivery-side down check.
            pending_purges_.push_back(locality);
        }
    }
    wake();
    return true;
}

bool socket_transport::debug_drop_connection(std::uint32_t dst_locality)
{
    if (dst_locality >= num_localities_)
        return false;
    // Handed to the IO thread: it closes the established connection via
    // the normal lost-link path (drop partial frame, count a reconnect,
    // retry with backoff).  Touching the fd here would race the owner.
    drop_endpoint_.store(
        static_cast<std::int32_t>(endpoint_of_locality_[dst_locality]),
        std::memory_order_release);
    wake();
    return true;
}

void socket_transport::drain()
{
    std::uint64_t last_total = ~0ull;
    std::int64_t last_progress = now_ns();

    std::unique_lock lock(drain_mutex_);
    while (in_flight() != 0 && !io_stop_.load(std::memory_order_acquire))
    {
        std::uint64_t const total =
            messages_delivered_.load(std::memory_order_relaxed) +
            messages_dropped_.load(std::memory_order_relaxed);
        if (total != last_total)
        {
            last_total = total;
            last_progress = now_ns();
        }
        else if (now_ns() - last_progress >
            params_.drain_timeout_ms * 1'000'000)
        {
            // No forward progress: frames are stuck toward an endpoint
            // that will not come back (or loopback bytes died with a cut
            // self-connection).  Reconcile instead of hanging quiesce:
            // drop the stuck frames (counted) — the reliability layer
            // owns recovery.
            COAL_LOG_WARN("wire",
                "drain stalled %lld ms with %llu in flight; reconciling",
                static_cast<long long>(params_.drain_timeout_ms),
                static_cast<unsigned long long>(in_flight()));
            purge_requested_.store(true, std::memory_order_release);
            wake();
            drain_cv_.wait_for(lock, std::chrono::milliseconds(100));
            std::uint64_t transit =
                loopback_transit_.exchange(0, std::memory_order_acq_rel);
            if (transit != 0)
                messages_dropped_.fetch_add(
                    transit, std::memory_order_relaxed);
            return;
        }
        wake();
        drain_cv_.wait_for(lock, std::chrono::microseconds(500));
    }
}

void socket_transport::shutdown()
{
    bool expected = false;
    if (!stopping_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel))
    {
        if (io_thread_.joinable())
            io_thread_.join();
        return;
    }

    // Graceful drain: let the IO thread flush what is queued.
    std::int64_t const deadline =
        now_ns() + params_.drain_timeout_ms * 1'000'000;
    for (;;)
    {
        bool empty = true;
        for (auto& c : out_conns_)
        {
            std::lock_guard lock(c->qlock);
            if (!c->q.empty())
            {
                empty = false;
                break;
            }
        }
        if (empty || now_ns() > deadline)
            break;
        wake();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Announce the close so peers can tell graceful from crashed.
    for (std::uint32_t i = 0; i != endpoints_.size(); ++i)
    {
        auto& c = *out_conns_[i];
        if (c.st == connection::state::open)
            enqueue_control(
                i, wire::frame_kind::goodbye, serialization::shared_buffer{});
    }
    std::int64_t const bye_deadline = now_ns() + 100'000'000;
    for (;;)
    {
        bool empty = true;
        for (auto& c : out_conns_)
        {
            std::lock_guard lock(c->qlock);
            if (!c->q.empty())
            {
                empty = false;
                break;
            }
        }
        if (empty || now_ns() > bye_deadline)
            break;
        wake();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    io_stop_.store(true, std::memory_order_release);
    wake();
    if (io_thread_.joinable())
        io_thread_.join();

    // Account every frame that never made it out, then close the doors.
    for (auto& c : out_conns_)
    {
        std::lock_guard lock(c->qlock);
        for (auto const& f : c->q)
            drop_frame_accounting(f);
        c->q.clear();
        c->q_bytes = 0;
        c->write_off = 0;
        if (c->fd >= 0)
        {
            ::close(c->fd);
            c->fd = -1;
        }
    }
    for (auto& c : in_conns_)
    {
        if (c->fd >= 0)
        {
            ::close(c->fd);
            c->fd = -1;
        }
    }
    in_conns_.clear();
    for (auto& ep : endpoints_)
    {
        if (ep->listen_fd >= 0)
        {
            ::close(ep->listen_fd);
            ep->listen_fd = -1;
        }
        if (!ep->uds_path.empty())
            ::unlink(ep->uds_path.c_str());
    }
    for (int& fd : wake_pipe_)
    {
        if (fd >= 0)
        {
            ::close(fd);
            fd = -1;
        }
    }

    std::uint64_t const transit =
        loopback_transit_.exchange(0, std::memory_order_acq_rel);
    if (transit != 0)
        messages_dropped_.fetch_add(transit, std::memory_order_relaxed);
}

transport_stats socket_transport::stats() const
{
    transport_stats s;
    s.messages_sent = messages_sent_.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    s.messages_delivered =
        messages_delivered_.load(std::memory_order_relaxed);
    s.bytes_delivered = bytes_delivered_.load(std::memory_order_relaxed);
    s.messages_dropped = messages_dropped_.load(std::memory_order_relaxed);
    return s;
}

socket_wire_stats socket_transport::wire_stats() const
{
    socket_wire_stats s;
    s.bytes_sent = wire_bytes_sent_.load(std::memory_order_relaxed);
    s.bytes_received = wire_bytes_received_.load(std::memory_order_relaxed);
    s.frames_sent = wire_frames_sent_.load(std::memory_order_relaxed);
    s.frames_received =
        wire_frames_received_.load(std::memory_order_relaxed);
    s.reconnects = wire_reconnects_.load(std::memory_order_relaxed);
    s.connects = wire_connects_.load(std::memory_order_relaxed);
    s.accepts = wire_accepts_.load(std::memory_order_relaxed);
    s.partial_write_resumptions =
        wire_partial_writes_.load(std::memory_order_relaxed);
    s.partial_read_resumptions =
        wire_partial_reads_.load(std::memory_order_relaxed);
    s.crc_drops = wire_crc_drops_.load(std::memory_order_relaxed);
    s.desync_drops = wire_desync_drops_.load(std::memory_order_relaxed);
    s.oversized_drops =
        wire_oversized_drops_.load(std::memory_order_relaxed);
    s.truncated_drops =
        wire_truncated_drops_.load(std::memory_order_relaxed);
    s.connect_failures =
        wire_connect_failures_.load(std::memory_order_relaxed);
    s.accept_failures =
        wire_accept_failures_.load(std::memory_order_relaxed);
    s.handshake_failures =
        wire_handshake_failures_.load(std::memory_order_relaxed);
    s.backlog_drops = wire_backlog_drops_.load(std::memory_order_relaxed);
    return s;
}

}    // namespace coal::net
