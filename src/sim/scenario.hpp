// Composable adversarial fault schedules for the event engine
// (DESIGN.md §8). A ScenarioHarness turns one seeded FaultSchedule into
// partitions, flapping links, regional outages, transport loss/duplication
// and Byzantine traffic (tampered AEAD payloads, replayed envelopes, forged
// attestation quotes) — all injected inside SimEngine::release_envelope so
// every fault pays real link cost and hits the real crypto, and all checked
// online by an InvariantChecker plus a per-fault-class delivery ledger.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "sim/invariants.hpp"
#include "support/rng.hpp"
#include "support/sim_clock.hpp"

namespace rex::sim {

class SimEngine;
struct ExperimentResult;

/// Fault classes a schedule can compose (DESIGN.md §8 "Fault schedule").
enum class FaultKind : std::uint8_t {
  kPartition = 0,     // healing split of the node set (cross-cut loss)
  kRegionOutage = 1,  // correlated loss on links crossing one geo region
  kLinkFlap = 2,      // periodic up/down (optionally asymmetric) edges
  kLoss = 3,          // i.i.d. message loss at the transport boundary
  kDuplicate = 4,     // Byzantine peers re-send protocol envelopes
  kTamper = 5,        // Byzantine peers flip AEAD ciphertext bytes
  kReplay = 6,        // Byzantine peers replay stale protocol envelopes
  kQuoteForgery = 7,  // Byzantine peers corrupt attestation quotes
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// Values of net::Envelope::fault — per-envelope outcome tags the harness
/// stamps so the engine and the delivery ledger agree on what happened.
struct FaultTag {
  static constexpr std::uint8_t kNone = 0;
  static constexpr std::uint8_t kLost = 1;       // drops at delivery
  static constexpr std::uint8_t kTampered = 2;   // ciphertext corrupted
  static constexpr std::uint8_t kDuplicated = 3; // injected duplicate copy
  static constexpr std::uint8_t kReplayed = 4;   // injected stale copy
  static constexpr std::uint8_t kForgedQuote = 5;// corrupted att_quote JSON
  static constexpr std::size_t kCount = 6;
};

/// One fault window. Selector semantics depend on the kind; every random
/// decision derives from the schedule seed, never from wall clock.
struct FaultSpec {
  FaultKind kind = FaultKind::kLoss;
  /// Active window in simulated time: faults fire at releases with
  /// start <= t < end. Partitions/outages "heal" when the window closes.
  SimTime start{0.0};
  SimTime end{0.0};
  /// Per-envelope fire probability for loss and the Byzantine kinds.
  double probability = 1.0;
  /// Salt mixed into the per-node / per-edge membership hash, so two specs
  /// of the same kind cut the network differently.
  std::uint64_t selector = 0;
  /// kRegionOutage: the LinkModel geo region whose cross-border links drop.
  std::size_t region = 0;
  /// kLinkFlap: square-wave period and down-time duty cycle.
  double flap_period_s = 0.1;
  double flap_duty = 0.5;
  /// kLinkFlap: fraction of (directed, when asymmetric) pairs that flap.
  double edge_fraction = 1.0;
  /// kLinkFlap: when true, each direction of a pair flaps independently.
  bool asymmetric = false;
  /// Byzantine kinds: fraction of nodes that behave adversarially.
  double node_fraction = 0.25;

  static FaultSpec partition(SimTime start, SimTime end,
                             std::uint64_t selector = 0,
                             double probability = 1.0);
  static FaultSpec region_outage(SimTime start, SimTime end,
                                 std::size_t region);
  static FaultSpec link_flap(SimTime start, SimTime end, double period_s,
                             double duty, double edge_fraction,
                             bool asymmetric = false,
                             std::uint64_t selector = 0);
  static FaultSpec loss(SimTime start, SimTime end, double probability);
  static FaultSpec duplicate(SimTime start, SimTime end, double probability,
                             double node_fraction = 0.25);
  static FaultSpec tamper(SimTime start, SimTime end, double probability,
                          double node_fraction = 0.25);
  static FaultSpec replay(SimTime start, SimTime end, double probability,
                          double node_fraction = 0.25);
  static FaultSpec quote_forgery(SimTime start, SimTime end,
                                 double probability,
                                 double node_fraction = 1.0);
};

/// A full scenario: the fault list plus the invariant-sweep cadence and the
/// convergence acceptance knobs. Default-constructed (empty `faults`) means
/// "harness off" — the engine then takes the exact pre-harness code paths
/// and golden dumps stay byte-identical.
struct FaultSchedule {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> faults;
  /// Simulated-time cadence of the cross-node invariant sweep; 0 sweeps
  /// only at finalize.
  double check_interval_s = 0.0;
  /// When true, finalize requires the run's final_rmse() to be no worse
  /// than the first round's RMSE — but only if every fault window healed
  /// before the run ended (convergence *after* heal).
  bool require_convergence = true;

  [[nodiscard]] bool enabled() const { return !faults.empty(); }
  [[nodiscard]] bool has(FaultKind kind) const;
};

/// Per-fault-class envelope accounting. Settlement is exhaustive for every
/// envelope the engine retired; copies still in flight at run end account
/// for injected - (delivered + dropped + elided).
struct FaultLedger {
  std::uint64_t injected = 0;   // envelopes stamped with this tag
  std::uint64_t delivered = 0;  // reached prepare_delivery and delivered
  std::uint64_t dropped = 0;    // dropped in flight (loss or churn outage)
  std::uint64_t elided = 0;     // never transmitted (known-offline peer)
};

/// Installed into a SimEngine (engine.set_harness) for the length of a run.
/// All hooks execute on the engine's serial phase in a thread-count
/// independent order, so the single schedule-seeded Rng keeps runs
/// bit-identical across 1/2/8 worker threads.
class ScenarioHarness {
 public:
  /// `secure` gates the Byzantine kinds (they need real AEAD/attestation to
  /// attack); `result` is read at finalize for the convergence invariant.
  ScenarioHarness(SimEngine& engine, FaultSchedule schedule, bool secure,
                  const ExperimentResult& result);

  /// Release-time filter: may tag `env` as lost, tamper its payload, stash
  /// it for a later replay, or queue injected copies (pop_injected).
  void on_release(net::Envelope& env, SimTime release);

  /// Drain one harness-injected envelope (duplicate/replay copy) for the
  /// engine to release; returns false when none are pending.
  bool pop_injected(net::Envelope& out);

  /// A faulted envelope was elided at release (destination known offline).
  void on_fault_elided(const net::Envelope& env);

  /// A faulted envelope retired at its destination: delivered into the node
  /// or dropped in flight. Closes the ledger row opened at injection.
  void on_fault_settled(const net::Envelope& env, bool delivered);

  /// Serial-phase batch hook: folds healed partition/outage windows into
  /// per-node partitions_survived and runs the periodic invariant sweep.
  void on_batch(SimTime now);

  /// End-of-run accounting: ledger conservation, rejection-counter
  /// reconciliation against TrustedNode, and post-heal convergence.
  void finalize();

  [[nodiscard]] const FaultLedger& ledger(std::uint8_t tag) const {
    return ledgers_.at(tag);
  }
  [[nodiscard]] std::uint64_t invariant_checks() const {
    return checker_.checks() + ledger_checks_;
  }
  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }

 private:
  struct SpecState {
    FaultSpec spec;
    bool window_closed = false;
    /// Nodes whose traffic this partition/outage actually cut — folded into
    /// NodeStatus::partitions_survived when the window heals.
    std::vector<bool> touched;
  };

  [[nodiscard]] bool byzantine(net::NodeId node,
                               const FaultSpec& spec) const;
  void apply_loss_faults(net::Envelope& env, SimTime release);
  void apply_byzantine_faults(net::Envelope& env, SimTime release);
  void tamper_payload(net::Envelope& env);
  bool forge_quote(net::Envelope& env);
  void fold_healed_windows(SimTime now);

  SimEngine& engine_;
  FaultSchedule schedule_;
  bool secure_ = false;
  const ExperimentResult& result_;
  Rng rng_;
  std::vector<SpecState> specs_;
  std::array<FaultLedger, FaultTag::kCount> ledgers_{};
  /// FIFO of injected duplicate/replay copies awaiting release.
  std::vector<net::Envelope> injected_;
  std::size_t injected_head_ = 0;
  /// Last clean protocol envelope per directed pair (src<<32|dst), replayed
  /// verbatim on the next release of that pair while a replay window is hot.
  std::map<std::uint64_t, net::Envelope> replay_stash_;
  InvariantChecker checker_;
  SimTime last_sweep_{0.0};
  std::uint64_t sweeps_ = 0;
  std::uint64_t ledger_checks_ = 0;
};

}  // namespace rex::sim
