#include "sim/scenario.hpp"

#include <cmath>
#include <string>
#include <string_view>
#include <utility>

#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "support/error.hpp"

namespace rex::sim {

namespace {

/// Uniform double in [0, 1) from a 64-bit key — the membership hash for
/// partitions, flapping edges and Byzantine node sets. Keyed (not drawn from
/// the stream Rng) so a node's side of a partition never depends on how many
/// envelopes were released before it was first asked (DESIGN.md §8).
double hash01(std::uint64_t key) {
  return static_cast<double>(SplitMix64{key}.next() >> 11) * 0x1.0p-53;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return SplitMix64{a ^ (b * 0x9E3779B97F4A7C15ULL) ^
                    (c * 0xBF58476D1CE4E5B9ULL)}
      .next();
}

std::uint64_t pair_key(net::NodeId a, net::NodeId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

bool in_window(const FaultSpec& spec, SimTime t) {
  return spec.start <= t && t < spec.end;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kRegionOutage:
      return "region-outage";
    case FaultKind::kLinkFlap:
      return "link-flap";
    case FaultKind::kLoss:
      return "loss";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kTamper:
      return "tamper";
    case FaultKind::kReplay:
      return "replay";
    case FaultKind::kQuoteForgery:
      return "quote-forgery";
  }
  return "unknown";
}

FaultSpec FaultSpec::partition(SimTime start, SimTime end,
                               std::uint64_t selector, double probability) {
  FaultSpec spec;
  spec.kind = FaultKind::kPartition;
  spec.start = start;
  spec.end = end;
  spec.selector = selector;
  spec.probability = probability;
  return spec;
}

FaultSpec FaultSpec::region_outage(SimTime start, SimTime end,
                                   std::size_t region) {
  FaultSpec spec;
  spec.kind = FaultKind::kRegionOutage;
  spec.start = start;
  spec.end = end;
  spec.region = region;
  return spec;
}

FaultSpec FaultSpec::link_flap(SimTime start, SimTime end, double period_s,
                               double duty, double edge_fraction,
                               bool asymmetric, std::uint64_t selector) {
  FaultSpec spec;
  spec.kind = FaultKind::kLinkFlap;
  spec.start = start;
  spec.end = end;
  spec.flap_period_s = period_s;
  spec.flap_duty = duty;
  spec.edge_fraction = edge_fraction;
  spec.asymmetric = asymmetric;
  spec.selector = selector;
  return spec;
}

FaultSpec FaultSpec::loss(SimTime start, SimTime end, double probability) {
  FaultSpec spec;
  spec.kind = FaultKind::kLoss;
  spec.start = start;
  spec.end = end;
  spec.probability = probability;
  return spec;
}

FaultSpec FaultSpec::duplicate(SimTime start, SimTime end, double probability,
                               double node_fraction) {
  FaultSpec spec;
  spec.kind = FaultKind::kDuplicate;
  spec.start = start;
  spec.end = end;
  spec.probability = probability;
  spec.node_fraction = node_fraction;
  return spec;
}

FaultSpec FaultSpec::tamper(SimTime start, SimTime end, double probability,
                            double node_fraction) {
  FaultSpec spec;
  spec.kind = FaultKind::kTamper;
  spec.start = start;
  spec.end = end;
  spec.probability = probability;
  spec.node_fraction = node_fraction;
  return spec;
}

FaultSpec FaultSpec::replay(SimTime start, SimTime end, double probability,
                            double node_fraction) {
  FaultSpec spec;
  spec.kind = FaultKind::kReplay;
  spec.start = start;
  spec.end = end;
  spec.probability = probability;
  spec.node_fraction = node_fraction;
  return spec;
}

FaultSpec FaultSpec::quote_forgery(SimTime start, SimTime end,
                                   double probability, double node_fraction) {
  FaultSpec spec;
  spec.kind = FaultKind::kQuoteForgery;
  spec.start = start;
  spec.end = end;
  spec.probability = probability;
  spec.node_fraction = node_fraction;
  return spec;
}

bool FaultSchedule::has(FaultKind kind) const {
  for (const FaultSpec& spec : faults) {
    if (spec.kind == kind) return true;
  }
  return false;
}

ScenarioHarness::ScenarioHarness(SimEngine& engine, FaultSchedule schedule,
                                 bool secure, const ExperimentResult& result)
    : engine_(engine),
      schedule_(std::move(schedule)),
      secure_(secure),
      result_(result),
      rng_(schedule_.seed),
      checker_(engine, secure) {
  REX_REQUIRE(engine_.mode() == EngineMode::kEventDriven,
              "fault schedules need the event-driven engine: the barrier "
              "path never releases per-edge envelopes to intercept");
  specs_.reserve(schedule_.faults.size());
  for (const FaultSpec& spec : schedule_.faults) {
    REX_REQUIRE(spec.start < spec.end,
                std::string("empty fault window for ") + to_string(spec.kind));
    if (spec.kind == FaultKind::kTamper ||
        spec.kind == FaultKind::kQuoteForgery) {
      REX_REQUIRE(secure_,
                  std::string(to_string(spec.kind)) +
                      " faults attack AEAD/attestation and need a secure run");
    }
    if (spec.kind == FaultKind::kRegionOutage) {
      REX_REQUIRE(engine_.link_model().heterogeneous(),
                  "region-outage faults need a heterogeneous LinkModel "
                  "(regions are a WAN-profile concept)");
    }
    SpecState state;
    state.spec = spec;
    if (spec.kind == FaultKind::kPartition ||
        spec.kind == FaultKind::kRegionOutage) {
      state.touched.resize(engine_.node_count(), false);
    }
    specs_.push_back(std::move(state));
  }
}

bool ScenarioHarness::byzantine(net::NodeId node,
                                const FaultSpec& spec) const {
  if (spec.node_fraction >= 1.0) return true;
  return hash01(mix(node, spec.selector, schedule_.seed ^ 0xB12AULL)) <
         spec.node_fraction;
}

void ScenarioHarness::on_release(net::Envelope& env, SimTime release) {
  checker_.on_wire(env);
  apply_loss_faults(env, release);
  if (env.fault == FaultTag::kNone) {
    apply_byzantine_faults(env, release);
  }
}

void ScenarioHarness::apply_loss_faults(net::Envelope& env, SimTime release) {
  for (SpecState& state : specs_) {
    const FaultSpec& spec = state.spec;
    if (!in_window(spec, release)) continue;
    switch (spec.kind) {
      case FaultKind::kPartition: {
        // Deterministic ~halving of the node set: traffic crossing the cut
        // is lost until the window heals.
        const std::uint64_t salt = schedule_.seed ^ 0x9A27ULL;
        const bool src_side =
            hash01(mix(env.src, spec.selector, salt)) < 0.5;
        const bool dst_side =
            hash01(mix(env.dst, spec.selector, salt)) < 0.5;
        if (src_side == dst_side) break;
        if (spec.probability < 1.0 && !rng_.bernoulli(spec.probability)) {
          break;
        }
        env.fault = FaultTag::kLost;
        state.touched[env.src] = true;
        state.touched[env.dst] = true;
        break;
      }
      case FaultKind::kRegionOutage: {
        // Correlated outage: the region falls off the WAN — every link with
        // exactly one endpoint inside it drops; intra-region links live on.
        const LinkModel& links = engine_.link_model();
        const bool src_in = links.region(env.src) == spec.region;
        const bool dst_in = links.region(env.dst) == spec.region;
        if (src_in == dst_in) break;
        env.fault = FaultTag::kLost;
        state.touched[env.src] = true;
        state.touched[env.dst] = true;
        break;
      }
      case FaultKind::kLinkFlap: {
        net::NodeId a = env.src;
        net::NodeId b = env.dst;
        // Symmetric flaps key both directions of a pair identically;
        // asymmetric flaps select each direction independently.
        if (!spec.asymmetric && a > b) std::swap(a, b);
        if (spec.edge_fraction < 1.0 &&
            hash01(mix(pair_key(a, b), spec.selector,
                       schedule_.seed ^ 0xF1A9ULL)) >= spec.edge_fraction) {
          break;
        }
        const double phase =
            std::fmod((release - spec.start).seconds, spec.flap_period_s);
        if (phase < spec.flap_duty * spec.flap_period_s) {
          env.fault = FaultTag::kLost;
        }
        break;
      }
      case FaultKind::kLoss:
        if (rng_.bernoulli(spec.probability)) env.fault = FaultTag::kLost;
        break;
      default:
        break;
    }
    if (env.fault != FaultTag::kNone) {
      ++ledgers_[FaultTag::kLost].injected;
      return;
    }
  }
}

void ScenarioHarness::apply_byzantine_faults(net::Envelope& env,
                                             SimTime release) {
  for (SpecState& state : specs_) {
    const FaultSpec& spec = state.spec;
    if (!in_window(spec, release)) continue;
    switch (spec.kind) {
      case FaultKind::kTamper:
        if (env.kind != net::MessageKind::kProtocol) break;
        if (!byzantine(env.src, spec)) break;
        if (!rng_.bernoulli(spec.probability)) break;
        tamper_payload(env);
        return;
      case FaultKind::kDuplicate: {
        if (env.kind != net::MessageKind::kProtocol) break;
        if (!byzantine(env.src, spec)) break;
        if (!rng_.bernoulli(spec.probability)) break;
        net::Envelope copy = env;
        copy.fault = FaultTag::kDuplicated;
        injected_.push_back(std::move(copy));
        ++ledgers_[FaultTag::kDuplicated].injected;
        return;
      }
      case FaultKind::kReplay: {
        if (env.kind != net::MessageKind::kProtocol) break;
        if (!byzantine(env.src, spec)) break;
        const std::uint64_t key = pair_key(env.src, env.dst);
        const auto it = replay_stash_.find(key);
        if (it != replay_stash_.end() && rng_.bernoulli(spec.probability)) {
          net::Envelope stale = it->second;
          stale.fault = FaultTag::kReplayed;
          injected_.push_back(std::move(stale));
          ++ledgers_[FaultTag::kReplayed].injected;
        }
        // Always restash the current (clean — loss specs already passed)
        // envelope: the *next* release of this pair replays it verbatim,
        // sequence number and all.
        replay_stash_[key] = env;
        return;
      }
      case FaultKind::kQuoteForgery:
        if (env.kind != net::MessageKind::kAttestation) break;
        if (!byzantine(env.src, spec)) break;
        if (!rng_.bernoulli(spec.probability)) break;
        if (forge_quote(env)) return;
        break;
      default:
        break;
    }
  }
}

void ScenarioHarness::tamper_payload(net::Envelope& env) {
  const std::size_t size = env.payload.size();
  if (size == 0) return;
  Bytes copy(env.payload.data(), env.payload.data() + size);
  // Flipping one bit of the trailing AEAD tag guarantees an authentication
  // failure at the receiver without changing the wire size.
  copy.back() ^= 0x01;
  env.payload = SharedBytes::wrap(std::move(copy));
  env.fault = FaultTag::kTampered;
  ++ledgers_[FaultTag::kTampered].injected;
}

bool ScenarioHarness::forge_quote(net::Envelope& env) {
  // Attestation messages are cleartext JSON; only att_quote replies carry a
  // "quote" field (challenges do not — they pass through unforgeable).
  // serialize::Json::dump is compact, so the pattern below is stable.
  static constexpr std::string_view kPattern = "\"quote\":\"";
  const std::size_t size = env.payload.size();
  const std::string_view text(
      reinterpret_cast<const char*>(env.payload.data()), size);
  const std::size_t pos = text.find(kPattern);
  if (pos == std::string_view::npos) return false;
  // Corrupt one hex digit well inside the quote body.
  const std::size_t target = pos + kPattern.size() + 10;
  if (target >= size || text[target] == '"') return false;
  Bytes copy(env.payload.data(), env.payload.data() + size);
  copy[target] = copy[target] == '0' ? '1' : '0';
  env.payload = SharedBytes::wrap(std::move(copy));
  env.fault = FaultTag::kForgedQuote;
  ++ledgers_[FaultTag::kForgedQuote].injected;
  return true;
}

bool ScenarioHarness::pop_injected(net::Envelope& out) {
  if (injected_head_ >= injected_.size()) {
    injected_.clear();
    injected_head_ = 0;
    return false;
  }
  out = std::move(injected_[injected_head_]);
  ++injected_head_;
  return true;
}

void ScenarioHarness::on_fault_elided(const net::Envelope& env) {
  ++ledgers_.at(env.fault).elided;
}

void ScenarioHarness::on_fault_settled(const net::Envelope& env,
                                       bool delivered) {
  FaultLedger& ledger = ledgers_.at(env.fault);
  if (delivered) {
    ++ledger.delivered;
  } else {
    ++ledger.dropped;
  }
  ++ledger_checks_;
  REX_REQUIRE(env.fault != FaultTag::kLost || !delivered,
              "lost envelope delivered anyway: node " +
                  std::to_string(env.src) + " -> " + std::to_string(env.dst));
}

void ScenarioHarness::on_batch(SimTime now) {
  fold_healed_windows(now);
  if (schedule_.check_interval_s > 0.0 &&
      (now - last_sweep_).seconds >= schedule_.check_interval_s) {
    last_sweep_ = now;
    ++sweeps_;
    checker_.sweep(now);
  }
}

void ScenarioHarness::fold_healed_windows(SimTime now) {
  for (SpecState& state : specs_) {
    if (state.window_closed || now < state.spec.end) continue;
    state.window_closed = true;
    if (state.spec.kind == FaultKind::kPartition ||
        state.spec.kind == FaultKind::kRegionOutage) {
      for (std::size_t id = 0; id < state.touched.size(); ++id) {
        if (state.touched[id]) {
          engine_.note_partition_survived(static_cast<net::NodeId>(id));
        }
      }
    }
  }
}

void ScenarioHarness::finalize() {
  fold_healed_windows(engine_.now());
  checker_.sweep(engine_.now());

  const auto check = [this](bool condition, const std::string& message) {
    ++ledger_checks_;
    REX_REQUIRE(condition, message);
  };

  for (std::size_t tag = 1; tag < FaultTag::kCount; ++tag) {
    const FaultLedger& led = ledgers_[tag];
    check(led.delivered + led.dropped + led.elided <= led.injected,
          "fault ledger overdrawn for tag " + std::to_string(tag) +
              ": settled " +
              std::to_string(led.delivered + led.dropped + led.elided) +
              " of " + std::to_string(led.injected) + " injected");
  }
  check(ledgers_[FaultTag::kLost].delivered == 0,
        "lost envelopes must never deliver (" +
            std::to_string(ledgers_[FaultTag::kLost].delivered) + " did)");

  // Reconcile the enclave-side rejection counters against the delivery
  // ledger (DESIGN.md §8 "Byzantine accounting"). Organic traffic never
  // trips the tolerant-mode counters, so:
  //   tampered_rejected + replays_rejected <= Byzantine envelopes delivered
  // unconditionally; and when churn is off nothing else can absorb a
  // Byzantine delivery, so the bound is exact.
  std::uint64_t tampered = 0;
  std::uint64_t replays = 0;
  std::uint64_t forgeries = 0;
  for (net::NodeId id = 0; id < engine_.node_count(); ++id) {
    const core::TrustedNode& trusted = engine_.host(id).trusted();
    tampered += trusted.tampered_rejected();
    replays += trusted.replays_rejected();
    forgeries += trusted.quote_forgeries_rejected();
  }
  const std::uint64_t byz_delivered = ledgers_[FaultTag::kTampered].delivered +
                                      ledgers_[FaultTag::kDuplicated].delivered +
                                      ledgers_[FaultTag::kReplayed].delivered;
  check(tampered + replays <= byz_delivered,
        "more Byzantine rejections than Byzantine deliveries: " +
            std::to_string(tampered) + " tampered + " +
            std::to_string(replays) + " replays vs " +
            std::to_string(byz_delivered) + " delivered");
  if (!engine_.dynamics().churning()) {
    // No churn drops → every delivered tampered/duplicated/replayed
    // envelope was rejected by exactly one counter.
    check(tampered + replays == byz_delivered,
          "Byzantine delivery slipped past the rejection counters: " +
              std::to_string(tampered) + " tampered + " +
              std::to_string(replays) + " replays vs " +
              std::to_string(byz_delivered) + " delivered");
  }
  check(forgeries >= ledgers_[FaultTag::kForgedQuote].delivered,
        "forged quote accepted: " + std::to_string(forgeries) +
            " rejections vs " +
            std::to_string(ledgers_[FaultTag::kForgedQuote].delivered) +
            " forged quotes delivered");

  if (schedule_.require_convergence && result_.rounds.size() >= 2) {
    bool all_healed = true;
    for (const SpecState& state : specs_) {
      all_healed = all_healed && state.window_closed;
    }
    if (all_healed) {
      ++ledger_checks_;
      const double first = result_.rounds.front().mean_rmse;
      const double last = result_.final_rmse();
      REX_REQUIRE(last <= first,
                  "no convergence after heal: final mean RMSE " +
                      std::to_string(last) + " vs initial " +
                      std::to_string(first));
    }
  }
}

}  // namespace rex::sim
