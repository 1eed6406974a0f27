// SocketMachine tier: the on-socket frame codec rejects hostile input
// without allocating, the connection handshake refuses mismatched
// peers, and real multi-process jobs (forked ranks wired up through an
// in-test rendezvous root, exactly what cxrun does) produce results
// byte-identical to the threaded backend. The kill -9 test checks the
// full failure pipeline: SIGKILL -> connection EOF -> peer_down ->
// crashed + failure listener -> coordinator notice round ->
// cx::ft::on_failure on the surviving rank.

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/charm.hpp"
#include "ft/ft.hpp"
#include "machine/machine.hpp"
#include "net/frame.hpp"
#include "net/socket_util.hpp"
#include "net/wireup.hpp"
#include "pup/pup.hpp"
#include "trace/trace.hpp"

namespace {

// ---------------------------------------------------------------------------
// Frame codec

std::vector<std::byte> prefix_only(std::uint32_t len) {
  std::vector<std::byte> b(4);
  std::memcpy(b.data(), &len, 4);
  return b;
}

TEST(SocketFrame, RoundTripPreservesEveryField) {
  cxm::Message m;
  m.handler = 17;
  m.src_pe = 3;
  m.dst_pe = 9;
  m.ft_seq = 0xdeadbeefcafeull;
  m.ft_peer = 5;
  m.ft_flags = cxm::kFtReliable;
  m.wire_flags = cxm::kWireNoAgg;
  m.size_override = 1u << 20;
  const std::string payload = "the payload travels byte-for-byte";
  m.data.assign(reinterpret_cast<const std::byte*>(payload.data()),
                payload.size());

  const auto bytes = cxnet::encode_frame(m);
  ASSERT_EQ(bytes.size(), 4 + cxnet::kFrameHeaderBytes + payload.size());

  // Dribble the stream in one-byte feeds: a frame only surfaces once
  // the last byte arrives.
  cxnet::FrameReader r;
  cxnet::Frame f;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    r.feed(&bytes[i], 1);
    ASSERT_EQ(r.next(f), cxnet::FrameReader::Status::NeedMore);
  }
  r.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(r.next(f), cxnet::FrameReader::Status::Frame);
  EXPECT_EQ(f.kind, cxnet::FrameKind::Data);

  const cxm::MessagePtr back = cxnet::frame_to_message(f);
  EXPECT_EQ(back->handler, m.handler);
  EXPECT_EQ(back->src_pe, m.src_pe);
  EXPECT_EQ(back->dst_pe, m.dst_pe);
  EXPECT_EQ(back->ft_seq, m.ft_seq);
  EXPECT_EQ(back->ft_peer, m.ft_peer);
  EXPECT_EQ(back->ft_flags, m.ft_flags);
  EXPECT_EQ(back->wire_flags, m.wire_flags);
  EXPECT_EQ(back->size_override, m.size_override);
  ASSERT_EQ(back->data.size(), payload.size());
  EXPECT_EQ(std::memcmp(back->data.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(r.next(f), cxnet::FrameReader::Status::NeedMore);
  EXPECT_FALSE(r.failed());
}

TEST(SocketFrame, BackToBackFramesDecodeInOrder) {
  cxnet::FrameReader r;
  std::vector<std::byte> stream;
  for (int i = 0; i < 3; ++i) {
    cxm::Message m;
    m.handler = static_cast<std::uint32_t>(100 + i);
    m.dst_pe = i;
    const auto one = cxnet::encode_frame(m);
    stream.insert(stream.end(), one.begin(), one.end());
  }
  r.feed(stream.data(), stream.size());
  cxnet::Frame f;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(r.next(f), cxnet::FrameReader::Status::Frame);
    EXPECT_EQ(f.handler, static_cast<std::uint32_t>(100 + i));
    EXPECT_EQ(f.dst_pe, i);
  }
  EXPECT_EQ(r.next(f), cxnet::FrameReader::Status::NeedMore);
}

TEST(SocketFrame, OversizedPrefixRejectedFromPrefixAlone) {
  // A hostile length prefix must be rejected from the 4 prefix bytes
  // alone — before any body arrives, and without allocating what the
  // prefix claims (0xffffffff would be a 4 GiB buffer).
  cxnet::FrameReader r;
  const auto b = prefix_only(0xffffffffu);
  r.feed(b.data(), b.size());
  cxnet::Frame f;
  EXPECT_EQ(r.next(f), cxnet::FrameReader::Status::Error);
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.error().empty());
  EXPECT_LE(r.pending_bytes(), 4u);
  // The error state is sticky: further bytes never resurrect the
  // connection.
  const auto good = cxnet::encode_control(cxnet::ControlOp::Stop, -1, 0);
  r.feed(good.data(), good.size());
  EXPECT_EQ(r.next(f), cxnet::FrameReader::Status::Error);
}

TEST(SocketFrame, CustomLimitBoundsFrameSize) {
  cxnet::FrameReader r(256);
  cxnet::Frame f;
  auto over = prefix_only(257);
  r.feed(over.data(), over.size());
  EXPECT_EQ(r.next(f), cxnet::FrameReader::Status::Error);

  cxnet::FrameReader ok(256);
  auto fits = prefix_only(256);  // valid size; body just hasn't arrived
  ok.feed(fits.data(), fits.size());
  EXPECT_EQ(ok.next(f), cxnet::FrameReader::Status::NeedMore);
  EXPECT_FALSE(ok.failed());
}

TEST(SocketFrame, TruncatedPrefixRejected) {
  // A length prefix smaller than the fixed header can never frame a
  // message — protocol violation, not "wait for more".
  cxnet::FrameReader r;
  const auto b =
      prefix_only(static_cast<std::uint32_t>(cxnet::kFrameHeaderBytes - 1));
  r.feed(b.data(), b.size());
  cxnet::Frame f;
  EXPECT_EQ(r.next(f), cxnet::FrameReader::Status::Error);
}

TEST(SocketFrame, UnknownKindRejected) {
  cxm::Message m;
  auto bytes = cxnet::encode_frame(m);
  bytes[4] = std::byte{7};  // kind byte: neither Data nor Control
  cxnet::FrameReader r;
  r.feed(bytes.data(), bytes.size());
  cxnet::Frame f;
  EXPECT_EQ(r.next(f), cxnet::FrameReader::Status::Error);
}

TEST(SocketFrame, LocalPayloadRefusesToEncode) {
  // By-reference payloads are pointers into this process; a frame
  // carrying one would be garbage on the far side.
  cxm::Message m;
  int dummy = 0;
  m.local = &dummy;
  m.local_drop = +[](void*) noexcept {};
  EXPECT_THROW((void)cxnet::encode_frame(m), std::logic_error);
}

TEST(SocketFrame, ControlFrameRoundTrip) {
  const auto bytes = cxnet::encode_control(cxnet::ControlOp::Kill, 6, 2);
  cxnet::FrameReader r;
  r.feed(bytes.data(), bytes.size());
  cxnet::Frame f;
  ASSERT_EQ(r.next(f), cxnet::FrameReader::Status::Frame);
  EXPECT_EQ(f.kind, cxnet::FrameKind::Control);
  EXPECT_EQ(f.handler, static_cast<std::uint32_t>(cxnet::ControlOp::Kill));
  EXPECT_EQ(f.dst_pe, 6);
  EXPECT_EQ(f.src_pe, 2);
  EXPECT_EQ(f.payload_len, 0u);
}

// ---------------------------------------------------------------------------
// Handshake

TEST(SocketHandshake, EncodeDecodeRoundTrip) {
  cxnet::Handshake h;
  h.rank = 3;
  h.nranks = 8;
  h.ppn = 2;
  std::byte buf[cxnet::kHandshakeBytes];
  cxnet::encode_handshake(h, buf);
  const cxnet::Handshake d = cxnet::decode_handshake(buf);
  EXPECT_EQ(d.magic, cxnet::kHandshakeMagic);
  EXPECT_EQ(d.version, cxnet::kWireVersion);
  EXPECT_EQ(d.endian_probe, cxnet::kEndianProbe);
  EXPECT_EQ(d.rank, 3u);
  EXPECT_EQ(d.nranks, 8u);
  EXPECT_EQ(d.ppn, 2u);
  EXPECT_EQ(d.size_t_width, sizeof(std::size_t));
  EXPECT_EQ(d.double_width, sizeof(double));
}

TEST(SocketHandshake, RejectsMismatchedPeers) {
  cxnet::Handshake mine;
  mine.nranks = 4;
  mine.ppn = 2;
  EXPECT_EQ(cxnet::handshake_check(mine, mine), "");

  struct Case {
    const char* what;
    std::function<void(cxnet::Handshake&)> tamper;
  };
  const Case cases[] = {
      {"magic", [](cxnet::Handshake& h) { h.magic = 0x12345678; }},
      {"version", [](cxnet::Handshake& h) { h.version += 1; }},
      {"endianness", [](cxnet::Handshake& h) { h.endian_probe = 0x04030201; }},
      {"header size", [](cxnet::Handshake& h) { h.header_bytes += 4; }},
      {"size_t width", [](cxnet::Handshake& h) { h.size_t_width = 4; }},
      {"double width", [](cxnet::Handshake& h) { h.double_width = 12; }},
      {"nranks", [](cxnet::Handshake& h) { h.nranks = 5; }},
      {"ppn", [](cxnet::Handshake& h) { h.ppn = 1; }},
      {"rank range", [](cxnet::Handshake& h) { h.rank = h.nranks; }},
  };
  for (const auto& c : cases) {
    cxnet::Handshake theirs = mine;
    c.tamper(theirs);
    EXPECT_NE(cxnet::handshake_check(mine, theirs), "")
        << "mismatch not rejected: " << c.what;
  }
}

// ---------------------------------------------------------------------------
// Multi-process harness: the gtest parent plays cxrun's role — it owns
// the rendezvous listener, forks one child per rank (each child points
// CXRUN_* at the parent and runs `body`), then runs the root exchange.
// Children report through a pipe and _exit() so no gtest/leak machinery
// runs twice.

struct Job {
  std::vector<pid_t> pids;
  std::vector<int> out;  // read end of each rank's result pipe

  ~Job() {
    for (int fd : out) {
      if (fd >= 0) ::close(fd);
    }
  }
};

Job spawn_ranks(int nranks, int ppn,
                const std::function<void(int rank, int wfd)>& body) {
  cxnet::Fd listen = cxnet::tcp_listen(0);
  const std::uint16_t port = cxnet::local_port(listen.get());
  char root[32];
  std::snprintf(root, sizeof(root), "127.0.0.1:%u", port);

  Job job;
  for (int r = 0; r < nranks; ++r) {
    int p[2];
    if (::pipe(p) != 0) throw std::runtime_error("pipe() failed");
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(p[0]);
      listen.reset();
      for (int fd : job.out) ::close(fd);
      char v[16];
      std::snprintf(v, sizeof(v), "%d", r);
      ::setenv("CXRUN_RANK", v, 1);
      std::snprintf(v, sizeof(v), "%d", nranks);
      ::setenv("CXRUN_NRANKS", v, 1);
      std::snprintf(v, sizeof(v), "%d", ppn);
      ::setenv("CXRUN_PPN", v, 1);
      ::setenv("CXRUN_ROOT", root, 1);
      try {
        body(r, p[1]);
      } catch (...) {
        ::_exit(9);
      }
      ::_exit(0);
    }
    ::close(p[1]);
    job.pids.push_back(pid);
    job.out.push_back(p[0]);
  }
  cxnet::run_root_exchange(listen.get(), static_cast<std::uint32_t>(nranks),
                           static_cast<std::uint32_t>(ppn));
  return job;
}

bool read_exact(int fd, void* buf, std::size_t n, int timeout_ms = 120000) {
  auto* p = static_cast<unsigned char*>(buf);
  while (n > 0) {
    struct pollfd pf = {fd, POLLIN, 0};
    if (::poll(&pf, 1, timeout_ms) <= 0) return false;
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

void write_exact(int fd, const void* buf, std::size_t n) {
  auto* p = static_cast<const unsigned char*>(buf);
  while (n > 0) {
    const ssize_t r = ::write(fd, p, n);
    if (r <= 0) return;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

struct ExitStatus {
  bool signaled = false;
  int code = -1;  // exit code, or the signal number when signaled
};

ExitStatus wait_child(pid_t pid) {
  int st = 0;
  if (::waitpid(pid, &st, 0) != pid) return {};
  if (WIFSIGNALED(st)) return {true, WTERMSIG(st)};
  if (WIFEXITED(st)) return {false, WEXITSTATUS(st)};
  return {};
}

// ---------------------------------------------------------------------------
// Ring digest parity: a token hops PE 0 -> 1 -> ... -> 0 mixing
// (pe, hop) into an FNV accumulator at every stop. Any difference in
// delivery order, payload bytes, or routing changes the digest, so one
// u64 compares the whole run against the threaded backend.

struct Token {
  std::uint32_t hop = 0;
  std::uint32_t total = 0;
  std::uint64_t digest = 0;
  void pup(pup::Er& p) {
    p | hop;
    p | total;
    p | digest;
  }
};

std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

/// Run the token ring on any machine; returns the final digest on the
/// rank hosting PE 0 (where the ring closes), 0 elsewhere.
std::uint64_t run_ring(cxm::Machine& m, std::uint32_t total_hops) {
  std::atomic<std::uint64_t> result{0};
  std::uint32_t h = 0;
  h = m.register_handler([&](cxm::MessagePtr msg) {
    Token t = pup::from_bytes<Token>(msg->data);
    const int pe = m.current_pe();
    t.digest = fnv_step(t.digest, (static_cast<std::uint64_t>(pe) << 32) |
                                      t.hop);
    ++t.hop;
    if (t.hop == t.total) {
      result.store(t.digest);
      m.stop();
      return;
    }
    auto out = std::make_unique<cxm::Message>();
    out->handler = h;
    out->dst_pe = (pe + 1) % m.num_pes();
    out->data = pup::to_bytes(t);
    m.send(std::move(out));
  });
  if (m.hosts_pe(0)) {
    Token t;
    t.total = total_hops;
    t.digest = 0xcbf29ce484222325ull;
    auto seed = std::make_unique<cxm::Message>();
    seed->handler = h;
    seed->dst_pe = 0;
    seed->data = pup::to_bytes(t);
    m.send(std::move(seed));
  }
  m.run();
  return result.load();
}

// 4 PEs, 13 hops: 13 % 4 == 1, so the ring closes back on PE 0 — the
// rank that reports. With 2 ranks x 2 ppn, hops 1->2 and 3->0 cross
// the sockets while 0->1 and 2->3 take the in-process mailbox path.
constexpr std::uint32_t kRingHops = 13;

TEST(SocketJob, RingDigestMatchesThreaded) {
  cxm::MachineConfig ref;
  ref.num_pes = 4;
  ref.backend = cxm::Backend::Threaded;
  const std::uint64_t expected = run_ring(*cxm::make_machine(ref), kRingHops);
  ASSERT_NE(expected, 0u);

  Job job = spawn_ranks(2, 2, [](int, int wfd) {
    cxm::MachineConfig cfg;  // Threaded request; CXRUN_* upgrades it
    auto m = cxm::make_machine(cfg);
    const std::uint64_t digest = run_ring(*m, kRingHops);
    write_exact(wfd, &digest, sizeof(digest));
  });

  std::uint64_t digest = 0;
  ASSERT_TRUE(read_exact(job.out[0], &digest, sizeof(digest)));
  EXPECT_EQ(digest, expected);
  for (pid_t pid : job.pids) {
    const ExitStatus st = wait_child(pid);
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.code, 0);
  }
}

// ---------------------------------------------------------------------------
// Frame order across the two write paths: a sending PE writes a small
// frame straight to the peer socket when nothing is queued for that
// peer, and leaves large frames (and anything behind them) to the comm
// thread. Interleaving 64 B and 256 KiB payloads drives both paths and
// every switch between them; the receiver checks sequence order and
// every byte.

constexpr std::uint32_t kMixedFrames = 96;

bool mixed_is_large(std::uint32_t seq) { return seq % 4 == 3 || seq % 9 == 8; }

std::vector<std::byte> mixed_payload(std::uint32_t seq) {
  std::vector<std::byte> b(mixed_is_large(seq) ? 256 * 1024 : 64);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::byte>((seq * 131u + i * 7u) & 0xffu);
  }
  // The first four bytes carry the sequence number itself.
  std::memcpy(b.data(), &seq, sizeof(seq));
  return b;
}

TEST(SocketJob, MixedFrameSizesKeepFifoOrder) {
  // Rank 0 reports {frames written inline, frames queued}; rank 1
  // reports {frames received in order and intact, first bad sequence}.
  Job job = spawn_ranks(2, 1, [](int rank, int wfd) {
    cxm::MachineConfig cfg;  // Threaded request; CXRUN_* upgrades it
    auto m = cxm::make_machine(cfg);
    std::uint32_t good = 0;
    std::uint32_t first_bad = UINT32_MAX;
    const std::uint32_t data_h =
        m->register_handler([&](cxm::MessagePtr msg) {
          const std::uint32_t seq = good;
          const std::vector<std::byte> want = mixed_payload(seq);
          const bool intact =
              msg->data.size() == want.size() &&
              std::memcmp(msg->data.data(), want.data(), want.size()) == 0;
          if (first_bad == UINT32_MAX && intact) {
            ++good;
          } else if (first_bad == UINT32_MAX) {
            first_bad = seq;
          }
          if (good == kMixedFrames || first_bad != UINT32_MAX) m->stop();
        });
    const std::uint32_t start_h = m->register_handler([&](cxm::MessagePtr) {
      for (std::uint32_t seq = 0; seq < kMixedFrames; ++seq) {
        auto out = std::make_unique<cxm::Message>();
        out->handler = data_h;
        out->dst_pe = 1;
        out->data = mixed_payload(seq);
        m->send(std::move(out));
      }
    });
    const cx::trace::MachineStats before = cx::trace::machine_stats();
    if (rank == 0) {
      auto kick = std::make_unique<cxm::Message>();
      kick->handler = start_h;
      kick->dst_pe = 0;
      m->send(std::move(kick));
    }
    m->run();
    const cx::trace::MachineStats after = cx::trace::machine_stats();
    const std::uint64_t report[2] = {
        rank == 0 ? after.frames_inline - before.frames_inline : good,
        rank == 0 ? after.frames_queued - before.frames_queued : first_bad};
    write_exact(wfd, report, sizeof(report));
  });

  std::uint64_t sender[2] = {0, 0};
  std::uint64_t receiver[2] = {0, 0};
  ASSERT_TRUE(read_exact(job.out[0], sender, sizeof(sender)));
  ASSERT_TRUE(read_exact(job.out[1], receiver, sizeof(receiver)));
  EXPECT_EQ(receiver[0], kMixedFrames) << "first bad sequence " << receiver[1];
  EXPECT_EQ(receiver[1], UINT32_MAX);
  // Both write paths ran: the first frame finds an empty queue, and the
  // 256 KiB frames always go to the comm thread.
  EXPECT_GT(sender[0], 0u);
  EXPECT_GT(sender[1], 0u);
  for (pid_t pid : job.pids) {
    const ExitStatus st = wait_child(pid);
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.code, 0);
  }
}

// ---------------------------------------------------------------------------
// Full-runtime reduction parity: create_array spreads elements over
// both ranks, the broadcast and the sum reduction cross the sockets,
// and the result must match the threaded backend exactly.

struct SumCell : cx::Chare {
  void start(cx::Future<int> f) {
    contribute(this_index()[0] * 7 + 1, cx::reducer::sum<int>(),
               cx::cb(f));
  }
};

constexpr int kSumCells = 8;

int run_reduction_program(const cx::RuntimeConfig& cfg, int wfd) {
  int sum = -1;
  cx::Runtime rt(cfg);
  rt.run([&] {
    auto arr = cx::create_array<SumCell>({kSumCells});
    auto f = cx::make_future<int>();
    arr.broadcast<&SumCell::start>(f);
    sum = f.get();
    if (wfd >= 0) write_exact(wfd, &sum, sizeof(sum));
    cx::exit();
  });
  return sum;
}

TEST(SocketJob, RuntimeReductionMatchesThreaded) {
  cx::RuntimeConfig ref;
  ref.machine.num_pes = 4;
  const int expected = run_reduction_program(ref, -1);
  int check = 0;
  for (int i = 0; i < kSumCells; ++i) check += i * 7 + 1;
  ASSERT_EQ(expected, check);

  Job job = spawn_ranks(2, 2, [](int, int wfd) {
    cx::RuntimeConfig cfg;  // geometry comes from the CXRUN_* environment
    (void)run_reduction_program(cfg, wfd);
  });

  int sum = 0;
  ASSERT_TRUE(read_exact(job.out[0], &sum, sizeof(sum)));
  EXPECT_EQ(sum, expected);
  for (pid_t pid : job.pids) {
    const ExitStatus st = wait_child(pid);
    EXPECT_FALSE(st.signaled);
    EXPECT_EQ(st.code, 0);
  }
}

// ---------------------------------------------------------------------------
// kill -9 a worker rank: the comm threads of the survivors see the
// connection EOF, mark every PE of the dead rank crashed, and feed the
// failure listener — from there the PR 7 pipeline (coordinator notice
// round, cx::ft::on_failure) runs unchanged. Heartbeats are enabled so
// the liveness layer is live too; whichever detector fires first wins
// and the coordinator dedups the rest.

TEST(SocketJob, Kill9WorkerDeclaredThroughFtPipeline) {
  const int kVictimRank = 2;  // == PE 2 with ppn 1
  Job job = spawn_ranks(3, 1, [](int rank, int wfd) {
    cx::RuntimeConfig cfg;
    cfg.machine.faults.heartbeat_s = 0.05;
    cx::Runtime rt(cfg);
    if (rank != 0) {
      // Wireup is complete once the Runtime exists: report ready, then
      // run the scheduler until the Stop broadcast (or SIGKILL).
      const char ready = 'R';
      write_exact(wfd, &ready, 1);
    }
    rt.run([&] {
      // The callback outlives this entry function — keep its state on
      // the heap, not the entry frame.
      auto reported = std::make_shared<std::atomic<bool>>(false);
      cx::ft::on_failure([reported, wfd](const cx::ft::PeFailure& f) {
        if (reported->exchange(true)) return;
        const int report[2] = {f.pe, static_cast<int>(f.kind)};
        write_exact(wfd, report, sizeof(report));
        cx::exit();
      });
      const char ready = 'R';
      write_exact(wfd, &ready, 1);
    });
  });

  // All ranks wired up and rank 0's entry running: now pull the plug.
  for (int r = 0; r < 3; ++r) {
    char c = 0;
    ASSERT_TRUE(read_exact(job.out[r], &c, 1)) << "rank " << r;
    ASSERT_EQ(c, 'R');
  }
  ASSERT_EQ(::kill(job.pids[kVictimRank], SIGKILL), 0);

  int report[2] = {-1, -1};
  ASSERT_TRUE(read_exact(job.out[0], report, sizeof(report)));
  EXPECT_EQ(report[0], kVictimRank);  // the dead rank's PE
  EXPECT_EQ(report[1], static_cast<int>(cx::ft::FailureKind::Crashed));

  const ExitStatus victim = wait_child(job.pids[kVictimRank]);
  EXPECT_TRUE(victim.signaled);
  EXPECT_EQ(victim.code, SIGKILL);
  for (int r = 0; r < 3; ++r) {
    if (r == kVictimRank) continue;
    const ExitStatus st = wait_child(job.pids[r]);
    EXPECT_FALSE(st.signaled) << "rank " << r;
    EXPECT_EQ(st.code, 0) << "rank " << r;
  }
}

}  // namespace
