/**
 * @file
 * Connection front end of the daemon: a poll-driven accept loop plus
 * one handler thread per live connection, all feeding the shared
 * Batcher. A new connection joins a finished handler and takes over
 * its slot, so threads, stacks and slots track the peak number of
 * concurrent connections, not the number ever served. When no thread
 * can be started the connection gets a ResourceExhausted Error frame
 * and the daemon carries on; fault site serve.spawn.fail takes that
 * path as if thread creation had failed. An exception escaping a
 * handler (std::bad_alloc for a frame buffer, say) ends only its
 * connection: the client gets a best-effort Internal Error frame and
 * the slot is returned; fault site serve.handler.throw throws
 * std::bad_alloc after a request frame arrives.
 *
 * Per-connection conversation (protocol.hh): Hello → HelloAck (the
 * daemon's SAM header text), then any number of AlignRequests — each
 * answered with an AlignResponse in order, or an Error frame when
 * the request was shed/failed (the connection survives request-level
 * errors; only protocol violations and dead streams close it).
 * StatsRequest may interleave anywhere after Hello.
 *
 * Shutdown: stop() closes the listener, wakes every blocked handler
 * by shutting its socket down, stops the batcher and joins all
 * threads. In-flight requests either complete or fail with a clean
 * Error frame — a killed daemon can tear frames, but the checksummed
 * framing means a client never *accepts* a torn response (see the
 * chaos leg in tools/chaos_smoke.sh).
 *
 * Locking (DESIGN.md lock-order inventory): `_mu` here is a leaf
 * guarding the connection registry only; it is never held while
 * calling into the batcher or the sockets.
 */

#ifndef GENAX_SERVE_SERVER_HH
#define GENAX_SERVE_SERVER_HH

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "serve/batcher.hh"
#include "serve/socket.hh"

namespace genax {

class Server
{
  public:
    Server(AlignService &service, Batcher &batcher)
        : _service(service), _batcher(batcher)
    {
    }
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen on `ep` and start accepting. */
    Status start(const Endpoint &ep);

    /** The endpoint actually bound (real port for tcp:0). */
    const Endpoint &boundEndpoint() const
    {
        return _listener.boundEndpoint();
    }

    /** Stop accepting, tear down live connections, stop the batcher,
     *  join everything. Idempotent. */
    void stop();

    u64
    connectionsServed() const
    {
        return _connectionsServed.load(std::memory_order_relaxed);
    }

  private:
    void acceptLoop();
    /** A connection's thread: converse, then return the slot, whatever
     *  the conversation threw. */
    void handleConnection(Socket sock, size_t slot);
    /** Handshake, then requests until the stream ends. */
    void converse(Socket &sock);

    AlignService &_service;
    Batcher &_batcher;
    ListenSocket _listener;
    std::atomic<bool> _stop{false};
    std::atomic<u64> _connectionsServed{0};
    std::thread _acceptThread;

    Mutex _mu;
    /** Connection slots: a handler thread and its fd (-1 once the
     *  handler finished). stop() shuts down every live fd, then
     *  joins. */
    std::vector<std::thread> _threads GENAX_GUARDED_BY(_mu);
    std::vector<int> _fds GENAX_GUARDED_BY(_mu);
    /** Slots whose handler finished: the next connection joins the
     *  thread and reuses the slot. */
    std::vector<size_t> _finished GENAX_GUARDED_BY(_mu);
};

} // namespace genax

#endif // GENAX_SERVE_SERVER_HH
