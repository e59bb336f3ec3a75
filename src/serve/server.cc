#include "serve/server.hh"

#include <exception>
#include <memory>
#include <new>
#include <system_error>
#include <utility>

#include <sys/socket.h>

#include "common/faultinject.hh"
#include "common/logging.hh"

namespace genax {

Server::~Server()
{
    stop();
}

Status
Server::start(const Endpoint &ep)
{
    GENAX_TRY_ASSIGN(_listener, ListenSocket::listen(ep));
    _acceptThread = std::thread([this] { acceptLoop(); });
    return okStatus();
}

void
Server::stop()
{
    if (_stop.exchange(true))
        return; // first stopper owns the teardown
    // Join before closing: acceptFor polls with a bounded timeout,
    // so the loop re-checks _stop within ~100ms. Closing the fd
    // while the accept thread still reads it would be a race.
    if (_acceptThread.joinable())
        _acceptThread.join();
    _listener.close();

    // Unblock handlers stuck in recv: a shutdown fd reads EOF.
    {
        const MutexLock lk(_mu);
        for (int fd : _fds) {
            if (fd >= 0)
                ::shutdown(fd, SHUT_RDWR);
        }
    }
    // Unblock handlers stuck in the batcher: pending requests fail
    // with Unavailable and the handlers wind down.
    _batcher.stop();

    std::vector<std::thread> threads;
    {
        const MutexLock lk(_mu);
        threads.swap(_threads);
    }
    for (auto &t : threads) {
        if (t.joinable())
            t.join();
    }
}

void
Server::acceptLoop()
{
    while (!_stop.load(std::memory_order_relaxed)) {
        auto accepted = _listener.acceptFor(100);
        if (!accepted.ok()) {
            GENAX_WARN("accept failed: ", accepted.status().str());
            continue;
        }
        if (!accepted->has_value())
            continue; // timeout or transient accept failure
        // Shared with the handler so that a failed spawn, which
        // destroys the handler's copy, still leaves it to answer.
        const auto sock =
            std::make_shared<Socket>(std::move(**accepted));
        size_t slot = 0;
        std::thread finished;
        {
            const MutexLock lk(_mu);
            if (_finished.empty()) {
                slot = _threads.size();
                _threads.emplace_back();
                _fds.push_back(-1);
            } else {
                slot = _finished.back();
                _finished.pop_back();
                finished = std::move(_threads[slot]);
            }
            _fds[slot] = sock->fd();
        }
        // Marking its slot was the handler's last act under the lock,
        // so this join only waits for the thread to unwind.
        if (finished.joinable())
            finished.join();
        try {
            if (faultFires(fault::kServeSpawnFail)) [[unlikely]]
                throw std::system_error(
                    std::make_error_code(
                        std::errc::resource_unavailable_try_again),
                    "injected fault at serve.spawn.fail");
            std::thread handler([this, sock, slot] {
                handleConnection(std::move(*sock), slot);
            });
            const MutexLock lk(_mu);
            _threads[slot] = std::move(handler);
        } catch (const std::system_error &e) {
            GENAX_WARN("cannot start a connection handler: ", e.what());
            (void)sock->sendFrame(
                FrameType::Error,
                encodeError(resourceExhaustedError(
                    std::string("daemon cannot serve a connection "
                                "now: ") +
                    e.what())));
            sock->close();
            const MutexLock lk(_mu);
            _fds[slot] = -1;
            _finished.push_back(slot);
        }
    }
}

namespace {

/** Best-effort Error frame for a connection whose handler threw; it
 *  may itself run out of memory, so it swallows everything. */
void
sendHandlerFailure(Socket &sock, const char *what) noexcept
{
    try {
        GENAX_WARN("connection handler failed: ", what);
        (void)sock.sendFrame(
            FrameType::Error,
            encodeError(internalError(
                std::string("daemon failed while serving the "
                            "connection: ") +
                what)));
    } catch (...) {
    }
}

} // namespace

void
Server::handleConnection(Socket sock, size_t slot)
{
    // An exception escaping the conversation (std::bad_alloc for a
    // frame buffer, say) ends this connection, not the daemon: the
    // client gets a best-effort Error frame and the slot is returned.
    try {
        converse(sock);
    } catch (const std::exception &e) {
        sendHandlerFailure(sock, e.what());
    } catch (...) {
        sendHandlerFailure(sock, "unknown exception");
    }
    sock.close();
    _connectionsServed.fetch_add(1, std::memory_order_relaxed);
    const MutexLock lk(_mu);
    _fds[slot] = -1;
    _finished.push_back(slot);
}

void
Server::converse(Socket &sock)
{
    // Handshake: Hello (tenant name) → HelloAck (SAM header).
    std::string tenant = "anonymous";
    do {
        auto hello = sock.recvFrame();
        if (!hello.ok())
            break;
        if (hello->type != FrameType::Hello) {
            (void)sock.sendFrame(
                FrameType::Error,
                encodeError(failedPreconditionError(
                    std::string("expected a hello frame, got ") +
                    frameTypeName(hello->type))));
            break;
        }
        if (!hello->payload.empty())
            tenant = hello->payload;
        if (!sock.sendFrame(FrameType::HelloAck,
                            _service.headerText())
                 .ok())
            break;

        for (;;) {
            auto frame = sock.recvFrame();
            if (!frame.ok()) {
                // Clean close between frames is the normal end of a
                // conversation; anything else tore mid-frame.
                if (!isEndOfStream(frame.status()))
                    GENAX_WARN("connection to ", tenant,
                               " dropped: ", frame.status().str());
                break;
            }
            if (faultFires(fault::kServeHandlerThrow)) [[unlikely]]
                throw std::bad_alloc();
            if (frame->type == FrameType::AlignRequest) {
                auto reads = decodeAlignRequest(frame->payload);
                if (!reads.ok()) {
                    (void)sock.sendFrame(
                        FrameType::Error,
                        encodeError(reads.status()));
                    break; // protocol violation: drop the stream
                }
                auto lines = _batcher.align(
                    tenant, std::move(reads).value());
                if (!lines.ok()) {
                    // Request-level failure (shed, shutdown): a
                    // clean Error frame; the connection survives.
                    if (!sock.sendFrame(FrameType::Error,
                                        encodeError(lines.status()))
                             .ok())
                        break;
                    continue;
                }
                if (!sock.sendFrame(FrameType::AlignResponse,
                                    encodeAlignResponse(*lines))
                         .ok())
                    break;
            } else if (frame->type == FrameType::StatsRequest) {
                if (!sock.sendFrame(
                            FrameType::StatsReply,
                            Batcher::statsText(_batcher.stats()))
                         .ok())
                    break;
            } else {
                (void)sock.sendFrame(
                    FrameType::Error,
                    encodeError(failedPreconditionError(
                        std::string("unexpected ") +
                        frameTypeName(frame->type) + " frame")));
                break;
            }
        }
    } while (false);
}

} // namespace genax
