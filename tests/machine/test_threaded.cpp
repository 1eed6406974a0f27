#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "machine/machine.hpp"
#include "pup/pup.hpp"
#include "trace/trace.hpp"

namespace {

using namespace cxm;

MachineConfig threaded(int pes) {
  MachineConfig cfg;
  cfg.num_pes = pes;
  cfg.backend = Backend::Threaded;
  return cfg;
}

TEST(ThreadedMachine, IsOneRankHostingEveryPe) {
  for (const int pes : {1, 4}) {
    auto m = make_machine(threaded(pes));
    EXPECT_EQ(m->num_pes(), pes);
    EXPECT_EQ(m->num_ranks(), 1);
    EXPECT_EQ(m->my_rank(), 0);
    for (int pe = 0; pe < pes; ++pe) {
      EXPECT_TRUE(m->hosts_pe(pe)) << pe;
      EXPECT_EQ(m->pe_to_rank(pe), 0) << pe;
    }
  }
}

std::size_t dir_entries(const char* path) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(path)) {
    ++n;
  }
  return n;
}

// A threaded run is exactly its PE threads: no comm thread, and no wake
// pipe or epoll fd (those belong to the multi-rank bridge only).
TEST(ThreadedMachine, NoRankBridge) {
  // Sanitizer runtimes start a helper thread at the first thread
  // creation: let that happen, and the warm-up thread exit, before
  // taking the baseline.
  pid_t warm_tid = 0;
  std::thread([&] { warm_tid = ::gettid(); }).join();
  const std::string warm_task = "/proc/self/task/" + std::to_string(warm_tid);
  while (std::filesystem::exists(warm_task)) std::this_thread::yield();

  const std::size_t fds_before = dir_entries("/proc/self/fd");
  const std::size_t threads_before = dir_entries("/proc/self/task");
  auto m = make_machine(threaded(3));
  EXPECT_EQ(dir_entries("/proc/self/fd"), fds_before);
  std::size_t threads_running = 0;
  const auto h = m->register_handler([&](MessagePtr) {
    threads_running = dir_entries("/proc/self/task");
    m->stop();
  });
  auto msg = std::make_unique<Message>();
  msg->handler = h;
  msg->dst_pe = 2;  // the last PE thread spawned: all three are up
  m->send(std::move(msg));
  m->run();
  EXPECT_EQ(threads_running, threads_before + 3);
}

TEST(ThreadedMachine, ZeroPesThrows) {
  EXPECT_THROW((void)make_machine(threaded(0)), std::invalid_argument);
  EXPECT_THROW((void)make_machine(threaded(-2)), std::invalid_argument);
}

TEST(ThreadedMachine, DeliversToAllPEs) {
  auto m = make_machine(threaded(4));
  std::atomic<int> hits{0};
  std::atomic<int> pe_mask{0};
  const auto h = m->register_handler([&](MessagePtr) {
    hits.fetch_add(1);
    pe_mask.fetch_or(1 << m->current_pe());
    if (hits.load() == 4) m->stop();
  });
  for (int pe = 0; pe < 4; ++pe) {
    auto msg = std::make_unique<Message>();
    msg->handler = h;
    msg->dst_pe = pe;
    m->send(std::move(msg));
  }
  m->run();
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(pe_mask.load(), 0b1111);
}

TEST(ThreadedMachine, PingPongAcrossPEs) {
  auto m = make_machine(threaded(2));
  std::atomic<int> rounds{0};
  std::uint32_t h = 0;
  h = m->register_handler([&](MessagePtr msg) {
    int count = pup::from_bytes<int>(msg->data);
    if (count >= 10) {
      m->stop();
      return;
    }
    ++count;
    rounds.fetch_add(1);
    auto reply = std::make_unique<Message>();
    reply->handler = h;
    reply->dst_pe = 1 - m->current_pe();
    reply->data = pup::to_bytes(count);
    m->send(std::move(reply));
  });
  auto first = std::make_unique<Message>();
  first->handler = h;
  first->dst_pe = 0;
  int zero = 0;
  first->data = pup::to_bytes(zero);
  m->send(std::move(first));
  m->run();
  EXPECT_EQ(rounds.load(), 10);
}

TEST(ThreadedMachine, PayloadsArriveIntact) {
  auto m = make_machine(threaded(2));
  std::vector<double> payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<double>(i) * 0.25;
  }
  std::vector<double> received;
  const auto h = m->register_handler([&](MessagePtr msg) {
    received = pup::from_bytes<std::vector<double>>(msg->data);
    m->stop();
  });
  auto msg = std::make_unique<Message>();
  msg->handler = h;
  msg->dst_pe = 1;
  msg->data = pup::to_bytes(payload);
  m->send(std::move(msg));
  m->run();
  EXPECT_EQ(received, payload);
}

TEST(ThreadedMachine, LocalReferencePayload) {
  auto m = make_machine(threaded(1));
  std::vector<int> got;
  const auto h = m->register_handler([&](MessagePtr msg) {
    auto* p = static_cast<std::vector<int>*>(msg->take_local());
    got = *p;
    delete p;
    m->stop();
  });
  auto msg = std::make_unique<Message>();
  msg->handler = h;
  msg->dst_pe = 0;
  msg->local = new std::vector<int>{1, 2, 3};
  msg->local_drop = +[](void* p) noexcept {
    delete static_cast<std::vector<int>*>(p);
  };
  msg->local_size = 3 * sizeof(int);
  EXPECT_EQ(msg->wire_size(), 12u);
  m->send(std::move(msg));
  m->run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadedMachine, FifoOrderPerSourceDestinationPair) {
  auto m = make_machine(threaded(2));
  std::vector<int> order;
  std::uint32_t send_h = 0, recv_h = 0;
  recv_h = m->register_handler([&](MessagePtr msg) {
    order.push_back(pup::from_bytes<int>(msg->data));
    if (order.size() == 20) m->stop();
  });
  send_h = m->register_handler([&](MessagePtr) {
    for (int i = 0; i < 20; ++i) {
      auto out = std::make_unique<Message>();
      out->handler = recv_h;
      out->dst_pe = 1;
      out->data = pup::to_bytes(i);
      m->send(std::move(out));
    }
  });
  auto kick = std::make_unique<Message>();
  kick->handler = send_h;
  kick->dst_pe = 0;
  m->send(std::move(kick));
  m->run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadedMachine, BadDestinationThrows) {
  auto m = make_machine(threaded(2));
  auto msg = std::make_unique<Message>();
  msg->dst_pe = 5;
  EXPECT_THROW(m->send(std::move(msg)), std::out_of_range);
}

TEST(ThreadedMachine, SinglePe) {
  auto m = make_machine(threaded(1));
  int runs = 0;
  const auto h = m->register_handler([&](MessagePtr) {
    if (++runs == 3) m->stop();
  });
  for (int i = 0; i < 3; ++i) {
    auto msg = std::make_unique<Message>();
    msg->handler = h;
    msg->dst_pe = 0;
    m->send(std::move(msg));
  }
  m->run();
  EXPECT_EQ(runs, 3);
}

// ---------------------------------------------------------------------------
// Idle hand-off: an out-of-work PE polls its mailbox for a bounded window
// before it parks on the condition variable, unless the host has fewer
// cores than PE threads. The machine counters (cx::trace::machine_stats)
// show which path a run took.

TEST(ThreadedMachine, NoLostWakeupUnderBurstyTraffic) {
  // Bursts of messages hop around 4 PEs. Between bursts every PE runs
  // out of work and sits idle for a gap drawn, from a fixed seed, from
  // both sides of the 200 us poll window, so a burst lands on polling
  // PEs or on parked ones. Every burst must arrive within a bound: a
  // lost wake-up fails the test instead of hanging it.
  constexpr int kPes = 4;
  constexpr int kBursts = 150;
  constexpr int kPerBurst = 16;
  constexpr int kHops = 3;
  auto m = make_machine(threaded(kPes));
  std::atomic<int> arrived{0};
  std::uint32_t h = 0;
  h = m->register_handler([&](MessagePtr msg) {
    const int hops = pup::from_bytes<int>(msg->data);
    if (hops == 0) {
      arrived.fetch_add(1, std::memory_order_release);
      return;
    }
    auto out = std::make_unique<Message>();
    out->handler = h;
    out->dst_pe = (m->current_pe() + 1) % kPes;
    int next = hops - 1;
    out->data = pup::to_bytes(next);
    m->send(std::move(out));
  });
  cx::trace::reset_stats();
  std::thread runner([&] { m->run(); });

  std::mt19937 rng(20261019u);
  std::uniform_int_distribution<int> inside_us(5, 120);
  std::uniform_int_distribution<int> past_us(300, 1500);
  std::uniform_int_distribution<int> any_pe(0, kPes - 1);
  int lost_burst = -1;
  for (int b = 0; b < kBursts && lost_burst < 0; ++b) {
    const int gap = (rng() & 1u) != 0 ? inside_us(rng) : past_us(rng);
    std::this_thread::sleep_for(std::chrono::microseconds(gap));
    for (int i = 0; i < kPerBurst; ++i) {
      auto msg = std::make_unique<Message>();
      msg->handler = h;
      msg->dst_pe = any_pe(rng);
      int hops = kHops;
      msg->data = pup::to_bytes(hops);
      m->send(std::move(msg));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (arrived.load(std::memory_order_acquire) < (b + 1) * kPerBurst) {
      if (std::chrono::steady_clock::now() > deadline) {
        lost_burst = b;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    }
  }
  m->stop();
  runner.join();
  ASSERT_EQ(lost_burst, -1) << "burst " << lost_burst
                            << " did not arrive: lost wake-up";
  EXPECT_EQ(arrived.load(), kBursts * kPerBurst);
  const cx::trace::MachineStats s = cx::trace::machine_stats();
  if (s.idle_polls > 0) {
    // Polling host: some bursts (or hops) landed inside a poll window.
    EXPECT_GT(s.poll_hits, 0u);
  }
  EXPECT_GT(s.parks, 0u);  // and the long gaps outlasted it
}

TEST(ThreadedMachine, OversubscribedRunParksWithoutPolling) {
  // More PE threads than cores: an out-of-work PE must park at once
  // instead of spinning on a core another PE needs.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores == 0 || cores >= 64) {
    GTEST_SKIP() << "needs a known core count below 64, have " << cores;
  }
  const int pes = std::max(8, static_cast<int>(cores) + 1);
  auto m = make_machine(threaded(pes));
  const int total_hops = 3 * pes;
  std::atomic<int> hops_seen{0};
  std::uint32_t h = 0;
  h = m->register_handler([&](MessagePtr msg) {
    const int hop = pup::from_bytes<int>(msg->data);
    hops_seen.fetch_add(1);
    if (hop + 1 == total_hops) {
      m->stop();
      return;
    }
    auto out = std::make_unique<Message>();
    out->handler = h;
    out->dst_pe = (m->current_pe() + 1) % pes;
    int next = hop + 1;
    out->data = pup::to_bytes(next);
    m->send(std::move(out));
  });
  auto first = std::make_unique<Message>();
  first->handler = h;
  first->dst_pe = 0;
  int zero = 0;
  first->data = pup::to_bytes(zero);
  m->send(std::move(first));
  cx::trace::reset_stats();
  m->run();
  EXPECT_EQ(hops_seen.load(), total_hops);
  const cx::trace::MachineStats s = cx::trace::machine_stats();
  EXPECT_EQ(s.idle_polls, 0u);
  EXPECT_EQ(s.poll_hits, 0u);
  EXPECT_GT(s.parks, 0u);
}

}  // namespace
