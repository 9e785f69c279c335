#include "net/server.hpp"

#include <chrono>
#include <cstring>
#include <utility>

namespace hgp::net {

namespace {

/// Poll cadence of Watch sessions and the Await stop check.
constexpr std::chrono::milliseconds kWatchInterval{2};

bool get_u64(const std::string& payload, std::uint64_t& v) {
  io::Reader r(payload);
  return r.u64(v) && r.ok();
}

}  // namespace

Server::Server(Options options)
    : options_(std::move(options)),
      service_(options_.service) {
  auto& reg = obs::Registry::global();
  metrics_.connections = &reg.counter("net.connections");
  metrics_.frames_rx = &reg.counter("net.frames_rx");
  metrics_.frames_tx = &reg.counter("net.frames_tx");
  metrics_.bad_frames = &reg.counter("net.bad_frames");
  metrics_.submits = &reg.counter("net.submits");
  metrics_.scrapes = &reg.counter("net.scrapes");
  metrics_.auth_failures = &reg.counter("net.auth_failures");
  metrics_.sessions_active = &reg.gauge("net.sessions_active");
  metrics_.frame_ns = &reg.histogram("net.frame_ns");
  listener_ = ListenSocket::open(options_.host, options_.port);
  acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  if (stop_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  listener_.shutdown();
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (Session& s : sessions_) s.sock.shutdown_both();
  }
  // Sessions observe the shutdown (read returns EOF / writes fail) and exit;
  // join outside the lock so a session finishing right now can't deadlock.
  for (;;) {
    std::list<Session> finished;
    {
      std::lock_guard<std::mutex> lock(sessions_mutex_);
      if (sessions_.empty()) break;
      finished.splice(finished.begin(), sessions_);
    }
    for (Session& s : finished)
      if (s.thread.joinable()) s.thread.join();
  }
}

void Server::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Socket sock = listener_.accept();
    if (!sock.valid()) break;  // listener shut down
    metrics_.connections->inc();
    reap_sessions();
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    if (stop_.load(std::memory_order_acquire)) break;
    sessions_.emplace_back();
    Session* session = &sessions_.back();
    session->sock = std::move(sock);
    metrics_.sessions_active->add(1);
    session->thread = std::thread([this, session] {
      run_session(session);
      // FIN the peer now; the fd itself is closed later at reap/stop (a
      // close here could race stop()'s shutdown over a reused descriptor).
      session->sock.shutdown_both();
      metrics_.sessions_active->add(-1);
      session->done.store(true, std::memory_order_release);
    });
  }
}

void Server::reap_sessions() {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->done.load(std::memory_order_acquire) && it->thread.joinable()) {
      it->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::run_session(Session* session) {
  try {
    // One acceptor port, two protocols: peek the first bytes — an HTTP
    // request line means a Prometheus scrape, anything else must frame as
    // HGPN binary.
    char head[4] = {};
    const std::size_t seen = session->sock.peek(head, sizeof head);
    if (seen >= 3 && std::memcmp(head, "GET", 3) == 0) {
      serve_http(session->sock);
      return;
    }
    while (!stop_.load(std::memory_order_acquire)) {
      ReadResult in = read_frame(session->sock, options_.max_frame_bytes);
      if (in.status == WireStatus::Eof) return;
      metrics_.frames_rx->inc();
      if (in.status != WireStatus::Ok) {
        metrics_.bad_frames->inc();
        send_error(*session, in.status, wire_status_name(in.status));
        if (!wire_status_recoverable(in.status)) return;
        continue;  // frame dropped, stream still aligned — session lives
      }
      const auto t0 = std::chrono::steady_clock::now();
      const bool keep = handle_frame(*session, in.frame);
      metrics_.frame_ns->record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
      if (!keep) return;
    }
  } catch (const Error&) {
    // Peer vanished (reset, mid-frame close) or became unwritable. The
    // session ends; any job it submitted keeps running and its outcome stays
    // available through JobService::outcome for a later connection.
  }
}

bool Server::handle_frame(Session& session, const Frame& frame) {
  if (frame.type == FrameType::Hello) {
    io::Reader r(frame.payload);
    std::string token;
    if (!r.str(token) || !r.ok()) {
      metrics_.bad_frames->inc();
      send_error(session, WireStatus::BadPayload, "malformed hello");
      return true;
    }
    if (options_.tokens.empty()) {
      session.tenant.clear();  // open server: jobs keep their own tenant
    } else {
      const auto it = options_.tokens.find(token);
      if (it == options_.tokens.end()) {
        metrics_.auth_failures->inc();
        send_error(session, WireStatus::Unauthenticated, "unknown token");
        return true;  // session lives; a later Hello with a good token works
      }
      session.tenant = it->second;
    }
    session.authenticated = true;
    std::string payload;
    io::Writer w(payload);
    w.u32(serve::JobRequest::kSchemaVersion);
    w.str(session.tenant);
    write_frame(session.sock, FrameType::HelloOk, payload);
    metrics_.frames_tx->inc();
    return true;
  }

  if (!session.authenticated) {
    send_error(session, WireStatus::HelloRequired, "hello first");
    return true;
  }

  switch (frame.type) {
    case FrameType::Submit:
      handle_submit(session, frame);
      return true;
    case FrameType::Poll: {
      std::uint64_t id = 0;
      if (!get_u64(frame.payload, id)) {
        send_error(session, WireStatus::BadPayload, "malformed poll");
        return true;
      }
      const auto state = service_.state(id);
      std::string payload;
      io::Writer w(payload);
      w.u8(state.has_value() ? 1 : 0);
      w.u8(static_cast<std::uint8_t>(state.value_or(serve::JobState::Queued)));
      write_frame(session.sock, FrameType::PollReply, payload);
      metrics_.frames_tx->inc();
      return true;
    }
    case FrameType::Cancel: {
      std::uint64_t id = 0;
      if (!get_u64(frame.payload, id)) {
        send_error(session, WireStatus::BadPayload, "malformed cancel");
        return true;
      }
      const bool accepted = service_.cancel(id);
      std::string payload;
      io::Writer w(payload);
      w.u8(accepted ? 1 : 0);
      write_frame(session.sock, FrameType::CancelReply, payload);
      metrics_.frames_tx->inc();
      return true;
    }
    case FrameType::Await:
      handle_await(session, frame);
      return true;
    case FrameType::Watch:
      handle_watch(session, frame);
      return true;
    case FrameType::Scrape: {
      metrics_.scrapes->inc();
      std::string payload;
      io::Writer w(payload);
      w.str(obs::Registry::global().to_prometheus());
      write_frame(session.sock, FrameType::ScrapeReply, payload);
      metrics_.frames_tx->inc();
      return true;
    }
    default:
      metrics_.bad_frames->inc();
      send_error(session, WireStatus::UnknownType, "unknown frame type");
      return true;
  }
}

void Server::handle_submit(Session& session, const Frame& frame) {
  serve::JobRequest request;
  io::Reader r(frame.payload);
  if (!serve::JobRequest::deserialize(r, request)) {
    metrics_.bad_frames->inc();
    send_error(session, WireStatus::BadPayload, "malformed job request");
    return;
  }
  // Token-derived tenant wins over whatever the client wrote: fair shares
  // are per credential, not per self-declared tenant string.
  if (!session.tenant.empty()) request.run.tenant = session.tenant;
  std::string payload;
  io::Writer w(payload);
  request.run.dev = resolve_backend(request.backend);
  if (request.run.dev == nullptr) {
    w.u64(0);
    w.u8(static_cast<std::uint8_t>(serve::JobState::Rejected));
    w.i32(static_cast<std::int32_t>(serve::JobErrorCode::NullBackend));
    w.str("unknown backend '" + request.backend + "'");
  } else {
    metrics_.submits->inc();
    const serve::JobHandle handle = service_.submit(std::move(request));
    w.u64(handle.id);
    w.u8(static_cast<std::uint8_t>(handle.submit_state));
    w.i32(static_cast<std::int32_t>(handle.submit_error.code));
    w.str(handle.submit_error.message);
  }
  write_frame(session.sock, FrameType::SubmitReply, payload);
  metrics_.frames_tx->inc();
}

void Server::handle_await(Session& session, const Frame& frame) {
  std::uint64_t id = 0;
  if (!get_u64(frame.payload, id)) {
    send_error(session, WireStatus::BadPayload, "malformed await");
    return;
  }
  const auto future = service_.outcome(id);
  std::string payload;
  io::Writer w(payload);
  w.u64(id);
  if (!future) {
    w.u8(0);
    write_frame(session.sock, FrameType::Outcome, payload);
    metrics_.frames_tx->inc();
    return;
  }
  // Wait in slices so a stopping server never hangs on a long job; on stop
  // the session just ends and the outcome stays retained in the service.
  // Once the Outcome frame is written the job is delivered and leaves the
  // registry (a failed write throws past the release, keeping it fetchable).
  while (!stop_.load(std::memory_order_acquire)) {
    if (future->wait_for(kWatchInterval) == std::future_status::ready) {
      w.u8(1);
      future->get().serialize(w);
      write_frame(session.sock, FrameType::Outcome, payload);
      metrics_.frames_tx->inc();
      service_.release(id);
      return;
    }
  }
}

void Server::handle_watch(Session& session, const Frame& frame) {
  std::uint64_t id = 0;
  if (!get_u64(frame.payload, id)) {
    send_error(session, WireStatus::BadPayload, "malformed watch");
    return;
  }
  // Hold the outcome future for the whole watch. Another session may deliver
  // the same job (Await or Watch) and release it from the registry mid-watch;
  // the held future still resolves, so the watch ends on it, not on the
  // registry state, and a missing state() only means "already delivered".
  const auto future = service_.outcome(id);
  if (!future) {
    std::string payload;
    io::Writer w(payload);
    w.u64(id);
    w.u8(0);
    write_frame(session.sock, FrameType::Outcome, payload);
    metrics_.frames_tx->inc();
    return;
  }
  std::optional<serve::JobState> last;
  auto emit_state = [&](serve::JobState s) {
    std::string payload;
    io::Writer w(payload);
    w.u64(id);
    w.u8(static_cast<std::uint8_t>(s));
    write_frame(session.sock, FrameType::StateEvent, payload);
    metrics_.frames_tx->inc();
    last = s;
  };
  if (const auto now = service_.state(id)) emit_state(*now);
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;  // stopped mid-watch
    if (future->wait_for(kWatchInterval) == std::future_status::ready) break;
    const auto now = service_.state(id);
    if (now && now != last) emit_state(*now);
  }
  const serve::JobOutcome& outcome = future->get();
  if (last != outcome.state) emit_state(outcome.state);
  std::string payload;
  io::Writer w(payload);
  w.u64(id);
  w.u8(1);
  outcome.serialize(w);
  write_frame(session.sock, FrameType::Outcome, payload);
  metrics_.frames_tx->inc();
  service_.release(id);  // delivered, like handle_await
}

void Server::serve_http(Socket& sock) {
  metrics_.scrapes->inc();
  // Drain the request head; one recv is enough for a scrape GET.
  char buf[2048];
  (void)sock.read_some(buf, sizeof buf);
  const std::string body = obs::Registry::global().to_prometheus();
  std::string response =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " +
      std::to_string(body.size()) +
      "\r\n"
      "Connection: close\r\n"
      "\r\n" +
      body;
  sock.write_all(response);
}

void Server::send_error(Session& session, WireStatus status, const std::string& message) {
  std::string payload;
  io::Writer w(payload);
  w.i32(static_cast<std::int32_t>(status));
  w.str(message);
  write_frame(session.sock, FrameType::Error, payload);
  metrics_.frames_tx->inc();
}

const backend::FakeBackend* Server::resolve_backend(const std::string& name) {
  if (name.empty()) return nullptr;
  std::lock_guard<std::mutex> lock(backends_mutex_);
  const auto it = backends_.find(name);
  if (it != backends_.end()) return it->second.get();
  try {
    auto dev = std::make_unique<backend::FakeBackend>(backend::make_backend(name));
    return backends_.emplace(name, std::move(dev)).first->second.get();
  } catch (const Error&) {
    return nullptr;
  }
}

}  // namespace hgp::net
