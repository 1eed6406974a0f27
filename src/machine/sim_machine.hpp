#pragma once
// SimMachine — deterministic discrete-event simulator backend.
//
// All PEs are virtual and run in one OS thread. Each PE has a virtual
// clock; messages are delivered through a NetworkModel that charges
// latency + bytes/bandwidth (+ per-message CPU overhead on both sides).
// Handlers execute real code; compute()/charge() advance the virtual
// clock of the PE the handler runs on.
//
// Event ordering: a single min-heap keyed by (arrival time, sequence).
// Handlers can only generate events with arrival >= their own start time,
// so per-PE FIFO arrival order equals pop order and causality holds.
//
// Fault tolerance (cx::ft): when MachineConfig::faults is enabled the
// simulator injects seeded drop/duplicate/delay on cross-PE messages,
// runs the seq+ack reliable-delivery protocol with retransmit timer
// events, and executes scripted PE crash/hang at a virtual time. All
// fault decisions flow through one seeded FaultInjector consumed in
// deterministic event order, so the same seed replays the same fault
// script. When faults are disabled, send/run take exactly one extra
// branch and the event stream is byte-identical to the pre-ft backend.

#include <cstdint>
#include <map>
#include <queue>
#include <vector>

#include "ft/fault.hpp"
#include "ft/reliable.hpp"
#include "machine/machine.hpp"
#include "wire/agg.hpp"

namespace cxm {

class SimMachine final : public Machine {
 public:
  explicit SimMachine(const MachineConfig& cfg);
  ~SimMachine() override;

  std::uint32_t register_handler(Handler h) override;
  [[nodiscard]] int num_pes() const noexcept override { return num_pes_; }
  [[nodiscard]] int current_pe() const noexcept override {
    return current_pe_;
  }
  void send(MessagePtr msg) override;
  [[nodiscard]] double now() const override;
  void compute(double seconds) override { charge(seconds); }
  void charge(double seconds) override;
  void run() override;
  void stop() override { stop_ = true; }
  [[nodiscard]] bool is_simulated() const noexcept override { return true; }

  void send_after(MessagePtr msg, double delay_s) override;
  void inject_kill(int pe) override;
  void inject_hang(int pe) override;
  void declare_failed(int pe, cx::ft::FailureKind kind) override;
  void revive_pe(int pe) override;
  [[nodiscard]] bool pe_failed(int pe) const noexcept override;

  /// Max virtual time reached across PEs (the simulated makespan).
  [[nodiscard]] double makespan() const;

  /// Total events processed (for reporting / sanity checks).
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

  [[nodiscard]] const NetworkModel& network() const noexcept {
    return *net_;
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Message* msg;  // owned; unique_ptr is not movable through priority_queue
    bool operator>(const Event& o) const noexcept {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  void push_timer(int pe, int dst, std::uint64_t seq, double at);
  void handle_timer(int pe, const Message& msg, double time);
  void check_scripted(double time);
  void fail_pe(int pe, cx::ft::FailureKind kind, double time);

  // ---- sender-side aggregation (--wire-agg) ------------------------------
  [[nodiscard]] cx::wire::PeAggregator& agg(int pe);
  /// Deterministic flush: a DES timer event (kWireAggFlush) that seals
  /// `dst`'s open batch on `pe` unless the batch already closed (its
  /// generation moved past `gen`).
  void push_agg_flush(int pe, int dst, std::uint64_t gen, double at);
  /// Hand every sealed batch of `pe` to the transport (re-enters send()).
  void drain_agg(int pe);

  int num_pes_;
  std::vector<Handler> handlers_;
  std::vector<double> clock_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap_;
  std::unique_ptr<NetworkModel> net_;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  int current_pe_ = -1;
  bool stop_ = false;
  bool running_ = false;
  /// Per-channel FIFO enforcement (CHARMX_SIM_FIFO): a message never
  /// arrives before an earlier message on the same (src, dst) channel,
  /// matching the in-order delivery of real transport layers.
  bool fifo_ = false;
  std::map<std::pair<int, int>, double> last_arrival_;

  /// Sender-side aggregation (sampled from cx::wire::agg_enabled() at
  /// construction). Forces fifo_ on: the ordering argument needs
  /// in-order channels. Aggregators are created lazily per PE.
  bool agg_on_ = false;
  cx::wire::AggConfig agg_cfg_;
  std::vector<std::unique_ptr<cx::wire::PeAggregator>> aggs_;

  // ---- cx::ft state (all empty / untouched when ft_enabled_ is false) ----
  cx::ft::FaultConfig ft_;
  bool ft_enabled_ = false;
  /// A PE failed at some point (config-independent: inject_kill works
  /// without any --ft-* flags), so run() must check liveness per event.
  bool any_failed_ = false;
  std::unique_ptr<cx::ft::FaultInjector> inj_;
  std::vector<cx::ft::SenderWindow> senders_;
  std::vector<cx::ft::ReceiverWindow> receivers_;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint8_t> hung_;
  std::vector<std::uint8_t> unreachable_;
  /// The fault script (--ft-script), sorted by time with ties in
  /// insertion order; every PE validated at construction. The cursor only moves forward: a fired event
  /// never refires, so a revived PE is not instantly re-killed, yet
  /// later script entries can hit the same PE again across revives.
  std::vector<cx::ft::ScriptedFault> script_;
  std::size_t next_script_ = 0;
  std::vector<std::uint8_t> failure_notified_;
  /// Messages that arrived at a hung PE (its mailbox fills; nothing
  /// drains). Discarded on revive — restore rebuilds state anyway.
  std::vector<std::vector<Message*>> parked_;
};

}  // namespace cxm
