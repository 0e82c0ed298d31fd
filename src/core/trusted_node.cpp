#include "core/trusted_node.hpp"

#include <algorithm>

#include "crypto/aead.hpp"
#include "graph/graph.hpp"
#include "support/error.hpp"

namespace rex::core {

namespace {

/// Recycled per-worker decrypt target, emptied for each message: the
/// engine's math phase runs one node per worker at a time and every opened
/// payload is decoded out of it before the next open, so one buffer per
/// thread serves every node without a per-message allocation.
Bytes& plaintext_scratch() {
  static thread_local Bytes plaintext;
  plaintext.clear();
  return plaintext;
}

/// The rejection rule (DESIGN.md §8 "Byzantine accounting"): true when an
/// input `passed` its check. A failed input is an engine bug in a benign
/// run and aborts it with `message`; under RexConfig::tolerate_byzantine it
/// is a malicious peer's doing, counted in `rejected` for the caller to
/// discard, as a deployed node must.
bool admitted(bool passed, bool tolerate, std::uint64_t& rejected,
              const char* message) {
  if (passed) return true;
  REX_REQUIRE(tolerate, message);
  ++rejected;
  return false;
}

/// The same rule for checks that refuse by throwing rex::Error (the
/// payload decoder, require_cell_ids): `check` runs them, and a benign run
/// aborts with the refusal's own message.
template <class Check>
bool admitted(Check&& check, bool tolerate, std::uint64_t& rejected) {
  try {
    check();
  } catch (const Error&) {
    if (!tolerate) throw;
    return admitted(false, tolerate, rejected, "");
  }
  return true;
}

/// AAD binding a directed (sender, receiver) pair (DESIGN.md §6).
std::array<std::uint8_t, 8> frame_aad(NodeId sender, NodeId receiver) {
  std::array<std::uint8_t, 8> aad{};
  store_le32(aad.data(), sender);
  store_le32(aad.data() + 4, receiver);
  return aad;
}

/// Splits a framed blob into (seq, ciphertext); false = truncated.
bool split_frame(BytesView blob, std::uint64_t& seq, BytesView& ciphertext) {
  if (blob.size() <= sizeof(std::uint64_t)) return false;
  seq = load_le64(blob.data());
  ciphertext = blob.subspan(sizeof(std::uint64_t));
  return true;
}

}  // namespace

TrustedNode::TrustedNode(const RexConfig& config, NodeId id,
                         enclave::Runtime& runtime,
                         const enclave::EnclaveIdentity& identity,
                         const enclave::QuotingEnclave* quoting_enclave,
                         const enclave::DcapVerifier* verifier,
                         ml::ModelFactory model_factory, std::uint64_t seed,
                         SendFn send, BufferPool& payload_pool)
    : config_(config),
      id_(id),
      runtime_(runtime),
      identity_(identity),
      quoting_enclave_(quoting_enclave),
      verifier_(verifier),
      model_factory_(std::move(model_factory)),
      send_(std::move(send)),
      payload_pool_(payload_pool),
      rng_(seed),
      drbg_(seed ^ 0xA77E57A7A77E57A7ULL) {
  REX_REQUIRE(send_ != nullptr, "trusted node needs an ocall_send proxy");
  REX_REQUIRE(model_factory_ != nullptr, "trusted node needs a model factory");
}

// ===== Attestation =====

void TrustedNode::start_attestation(const std::vector<NodeId>& neighbors) {
  adopt_neighbors(neighbors);
  for (NodeId peer : neighbors_) open_session(peer);
  // Each unordered pair handshakes once; the lower id initiates.
  for (NodeId peer : neighbors_) {
    if (id_ < peer) send_attestation(peer, session(peer).initiate());
  }
}

void TrustedNode::send_attestation(NodeId peer,
                                   const serialize::Json& message) {
  runtime_.record_ocall();
  send_(peer, net::MessageKind::kAttestation, to_bytes(message.dump()));
}

void TrustedNode::restart_handshake(NodeId peer) {
  replace_session(peer);
  send_attestation(peer, session(peer).initiate());
}

void TrustedNode::on_attestation_message(NodeId src, BytesView blob) {
  runtime_.record_ecall();
  // The message is checked whole before any session state moves: a garbage
  // challenge must not tear down a settled pair. Only neighbors hold
  // sessions, so the first check also refuses a non-neighbor.
  const auto found = sessions_.find(src);
  if (!admitted(found != sessions_.end(), config_.tolerate_byzantine,
                tampered_rejected_, "no attestation session for this peer")) {
    return;
  }
  serialize::Json message;
  if (!admitted(
          [&] {
            message = serialize::Json::parse(rex::to_string(blob));
            found->second.require_well_formed(message);
          },
          config_.tolerate_byzantine, tampered_rejected_)) {
    return;
  }
  const std::string& type = message.at("type").as_string();
  // A challenge against a settled session is a rejoining peer: its enclave
  // restarted, so the old session key must not be trusted for new traffic.
  // Tear the session down (keeping the old key for in-flight envelopes) and
  // run the handshake fresh (DESIGN.md §6).
  if (type == "att_challenge" &&
      (found->second.attested() ||
       found->second.state() == enclave::AttestationState::kFailed)) {
    replace_session(src);
  }
  enclave::AttestationSession& sess = session(src);
  const std::optional<serialize::Json> reply = sess.handle(message);
  // Every legitimately handled quote ends in kAttested; anything else — a
  // forged/corrupted quote failing verification, or a quote arriving at an
  // unexpected state — failed closed. Counted unconditionally (fail-closed
  // is the benign policy too; DESIGN.md §8 "Byzantine accounting").
  if (type == "att_quote" &&
      sess.state() != enclave::AttestationState::kAttested) {
    ++quote_forgeries_rejected_;
  }
  if (reply.has_value()) send_attestation(src, *reply);
  // Rejoin: the moment a pair re-attests, pull the peer's current state.
  if (rejoining_ && sess.attested()) {
    maybe_send_resync_request(src);
  }
}

void TrustedNode::replace_session(NodeId peer) {
  const auto it = sessions_.find(peer);
  REX_REQUIRE(it != sessions_.end(), "no attestation session for this peer");
  if (it->second.attested()) {
    StaleKey stale;
    stale.key = it->second.session_key();
    stale.recv_sequence = it->second.recv_sequence();
    stale_keys_[peer] = stale;
  }
  sessions_.erase(it);
  open_session(peer);
}

void TrustedNode::open_session(NodeId peer) {
  sessions_.emplace(std::piecewise_construct, std::forward_as_tuple(peer),
                    std::forward_as_tuple(id_, peer, identity_,
                                          quoting_enclave_, verifier_,
                                          &drbg_));
}

// ===== Explicit-sequence AEAD framing (DESIGN.md §6) =====

SharedBytes TrustedNode::seal_framed(enclave::AttestationSession& session,
                                     NodeId peer, bool resync_plane,
                                     BytesView plaintext) {
  const std::uint64_t seq = resync_plane
                                ? session.next_resync_send_sequence()
                                : session.next_send_sequence();
  const crypto::ChaChaNonce nonce = resync_plane
                                        ? session.resync_send_nonce_for(seq)
                                        : session.send_nonce_for(seq);
  Bytes wire = payload_pool_.acquire();
  wire.resize(sizeof seq);
  store_le64(wire.data(), seq);
  crypto::aead_seal_into(session.session_key(), nonce, frame_aad(id_, peer),
                         plaintext, wire);
  return SharedBytes::pooled(payload_pool_, std::move(wire));
}

// ===== Rejoin (DESIGN.md §6) =====

void TrustedNode::begin_rejoin(const std::vector<NodeId>& online_peers) {
  REX_REQUIRE(initialized_, "rejoin before ecall_init");
  runtime_.record_ecall();
  resync_awaited_ = 0;
  ++rejoin_gen_;
  rejoining_ = !online_peers.empty();
  // Empty on a full partition: nothing to resync against.
  resync_pending_.assign(online_peers.begin(), online_peers.end());
  for (NodeId peer : online_peers) {
    REX_REQUIRE(neighbor_index(peer) < neighbors_.size(),
                "rejoin target is not a neighbor");
    if (runtime_.secure()) {
      // Re-attest first; the resync pull follows per pair as it completes.
      // The rejoiner initiates towards every online peer regardless of id
      // order — it is the side whose enclave restarted (simultaneous
      // rejoins still resolve deterministically inside AttestationSession).
      restart_handshake(peer);
    } else {
      maybe_send_resync_request(peer);  // native: no sessions, pull now
    }
  }
}

void TrustedNode::finish_rejoin() {
  rejoining_ = false;
  resync_pending_.clear();
  resync_awaited_ = 0;
}

void TrustedNode::maybe_send_resync_request(NodeId peer) {
  const auto it =
      std::find(resync_pending_.begin(), resync_pending_.end(), peer);
  if (it == resync_pending_.end()) return;
  resync_pending_.erase(it);
  ProtocolPayload request = payload_header(PayloadKind::kResyncRequest);
  request.resync_gen = rejoin_gen_;
  send_resync(peer, request);
  ++resync_awaited_;
}

void TrustedNode::send_resync(NodeId peer, const ProtocolPayload& payload) {
  REX_REQUIRE(!runtime_.secure() || attested_with(peer),
              "resync with unattested peer");
  (void)send_payload(std::span<const NodeId>(&peer, 1),
                     net::MessageKind::kResync,
                     payload.encode(payload_pool_.acquire()));
}

void TrustedNode::ecall_resync(NodeId src, BytesView blob) {
  REX_REQUIRE(initialized_, "resync message before ecall_init");
  runtime_.record_ecall();
  // Resync only flows between neighbors.
  if (!admitted(neighbor_index(src) < neighbors_.size(),
                config_.tolerate_byzantine, tampered_rejected_,
                "protocol message from non-neighbor")) {
    return;
  }
  BytesView plaintext = blob;
  if (runtime_.secure()) {
    // Resync is authenticated-or-ignored: a message that does not verify
    // under the current attested session was sealed under a session that a
    // further churn already replaced (an expected race, not tampering —
    // and the watchdog recovers a lost reply). Discard without consuming a
    // stream position; never process unauthenticated bytes.
    std::uint64_t seq = 0;
    BytesView ciphertext;
    if (!attested_with(src) || !split_frame(blob, seq, ciphertext)) {
      ++resync_discarded_;
      return;
    }
    auto& sess = session(src);
    runtime_.record_crypto(blob.size());
    Bytes& opened = plaintext_scratch();
    if (!crypto::aead_open_into(sess.session_key(),
                                sess.resync_recv_nonce_for(seq),
                                frame_aad(src, id_), ciphertext, opened) ||
        !sess.accept_resync_recv_sequence(seq)) {
      ++resync_discarded_;
      return;
    }
    plaintext = opened;
  }
  PendingInput input = acquire_input();  // recycled decode target
  const PayloadKind& kind = input.payload.kind;
  if (!admitted(
          [&] {
            ProtocolPayload::decode_into(plaintext, input.payload);
            REX_REQUIRE(kind == PayloadKind::kResyncRequest ||
                            kind == PayloadKind::kResyncModel,
                        "non-resync payload on the resync path");
            if (kind == PayloadKind::kResyncModel &&
                !input.payload.model_blob.empty()) {
              model_->require_wire_shape(input.payload.model_blob);
            }
          },
          config_.tolerate_byzantine, tampered_rejected_)) {
    recycle(std::move(input));
    return;
  }

  if (kind == PayloadKind::kResyncRequest) {
    // Serve the current model so the rejoiner re-enters the pipeline warm.
    ProtocolPayload reply = payload_header(PayloadKind::kResyncModel);
    reply.resync_gen = input.payload.resync_gen;  // correlate to the rejoin
    reply.model_blob = model_->serialize();
    resync_model_bytes_sent_ += reply.model_blob.size();
    send_resync(src, reply);
  } else {
    // Pairwise average, the §III-C1 merge rule: deterministic because
    // replies arrive in the engine's deterministic delivery order. Late
    // replies (after a watchdog force-completion) still merge — fresher
    // state never hurts a node that was stale anyway.
    if (!input.payload.model_blob.empty()) {
      ml::RecModel& alien = alien_scratch(0);
      alien.deserialize(input.payload.model_blob);
      const ml::MergeSource source{&alien, 0.5};
      model_->merge(std::span<const ml::MergeSource>(&source, 1), 0.5);
      ++resync_models_merged_;
    }
    // Only replies to *this* rejoin's requests count towards completion; a
    // reply that outlived a watchdog-ended rejoin still merges above (a
    // stale node can only get fresher) but must not complete the new one.
    if (rejoining_ && input.payload.resync_gen == rejoin_gen_ &&
        resync_awaited_ > 0 && --resync_awaited_ == 0 &&
        resync_pending_.empty()) {
      rejoining_ = false;
    }
  }
  recycle(std::move(input));
}

enclave::AttestationSession& TrustedNode::session(NodeId peer) {
  const auto it = sessions_.find(peer);
  REX_REQUIRE(it != sessions_.end(), "no attestation session for this peer");
  return it->second;
}

std::size_t TrustedNode::neighbor_index(NodeId src) const {
  const auto it = std::lower_bound(neighbors_.begin(), neighbors_.end(), src);
  return it != neighbors_.end() && *it == src
             ? static_cast<std::size_t>(it - neighbors_.begin())
             : neighbors_.size();
}

TrustedNode::PendingInput TrustedNode::acquire_input() {
  if (input_pool_.empty()) return PendingInput{};
  PendingInput input = std::move(input_pool_.back());
  input_pool_.pop_back();
  return input;
}

void TrustedNode::recycle(PendingInput&& input) {
  input.payload.ratings.clear();
  input.payload.model_blob.clear();
  input_pool_.push_back(std::move(input));
}

void TrustedNode::adopt_neighbors(const std::vector<NodeId>& neighbors) {
  neighbors_ = neighbors;
  std::sort(neighbors_.begin(), neighbors_.end());
  slots_.assign(neighbors_.size(), NeighborSlot{});
  filled_slots_ = 0;
}

enclave::AttestationState TrustedNode::session_state(NodeId peer) const {
  const auto it = sessions_.find(peer);
  return it == sessions_.end() ? enclave::AttestationState::kIdle
                               : it->second.state();
}

void TrustedNode::heal_attestation(NodeId peer) {
  // Same teardown-and-reinitiate a rejoin runs per peer (begin_rejoin),
  // minus the resync pull: this node's model never left, only the pair's
  // handshake is stuck. The old attested key (if any) stays available as
  // the stale-key fallback for traffic in flight across the heal.
  REX_REQUIRE(neighbor_index(peer) < neighbors_.size(),
              "only neighbors hold sessions");
  runtime_.record_ecall();
  restart_handshake(peer);
}

bool TrustedNode::attested_with(NodeId peer) const {
  const auto it = sessions_.find(peer);
  return it != sessions_.end() && it->second.attested();
}

bool TrustedNode::fully_attested() const {
  return std::all_of(
      neighbors_.begin(), neighbors_.end(),
      [this](NodeId peer) { return attested_with(peer); });
}

// ===== Protocol =====

void TrustedNode::ecall_init(TrustedInit init) {
  REX_REQUIRE(!initialized_, "ecall_init called twice");
  runtime_.record_ecall();

  // Algorithm 2 lines 2-3: copy the local partition into protected memory
  // and initialize data structures. The model comes first: its catalogue
  // size defines the cell ids that index the store.
  model_ = model_factory_(rng_);
  const std::uint64_t n_items = model_->item_count();
  REX_REQUIRE(n_items <= (std::uint64_t{1} << 32),
              "catalogue of " + std::to_string(n_items) +
                  " items exceeds the 32-bit cell-id space");
  require_cell_ids(init.local_train, id_);
  store_ = std::move(init.local_train);
  store_index_.reserve(store_.size());
  for (const data::Rating& r : store_) {
    store_index_.insert(cell_id(r, n_items));
  }
  local_users_.reserve(store_.size());
  for (const data::Rating& r : store_) local_users_.push_back(r.user);
  std::sort(local_users_.begin(), local_users_.end());
  local_users_.erase(std::unique(local_users_.begin(), local_users_.end()),
                     local_users_.end());
  test_data_ = std::move(init.local_test);
  if (neighbors_.empty() && !init.neighbors.empty()) {
    // Attestation may be skipped in native mode; adopt the neighbor list.
    adopt_neighbors(init.neighbors);
  }
  initialized_ = true;
  runtime_.set_resident(memory_footprint());

  // Algorithm 2 line 4: epoch 0 on the initial data.
  rex_protocol();
}

TrustedNode::QueryAnswer TrustedNode::query_topk(data::UserId user,
                                                 std::size_t k) {
  REX_REQUIRE(initialized_, "query before ecall_init");
  const std::size_t n_items = model_->item_count();
  // Exclusion mask: items `user` already rated here. Cached per (user,
  // store size) — the store only grows, so a size match means no rating
  // was appended since the mask was built.
  if (!seen_mask_valid_ || seen_mask_user_ != user ||
      seen_mask_store_size_ != store_.size() ||
      seen_mask_.size() != n_items) {
    seen_mask_.assign(n_items, 0);
    for (const data::Rating& r : store_) {
      if (r.user == user && r.item < n_items) seen_mask_[r.item] = 1;
    }
    seen_mask_user_ = user;
    seen_mask_store_size_ = store_.size();
    seen_mask_valid_ = true;
  }
  return QueryAnswer{topk_.query(*model_, user, k, seen_mask_), epoch_};
}

void TrustedNode::ecall_input(NodeId src, BytesView blob) {
  REX_REQUIRE(initialized_, "protocol message before ecall_init");
  runtime_.record_ecall();

  // Algorithm 2 lines 6-11: identify the source; decrypt if a session
  // exists, otherwise the message should have been an attestation one.
  const std::size_t slot = neighbor_index(src);
  if (!admitted(slot < neighbors_.size(), config_.tolerate_byzantine,
                tampered_rejected_, "protocol message from non-neighbor")) {
    return;
  }
  BytesView plaintext = blob;
  if (runtime_.secure()) {
    const auto found = sessions_.find(src);
    if (!admitted(found != sessions_.end(), config_.tolerate_byzantine,
                  tampered_rejected_, "no attestation session for this peer")) {
      return;
    }
    auto& sess = found->second;
    runtime_.record_crypto(blob.size());
    // Explicit-sequence framing (DESIGN.md §6): derive the nonce from the
    // cleartext position, so positions lost to an outage leave gaps
    // instead of desynchronizing the stream.
    std::uint64_t seq = 0;
    BytesView ciphertext;
    if (!admitted(split_frame(blob, seq, ciphertext),
                  config_.tolerate_byzantine, tampered_rejected_,
                  "truncated secure payload")) {
      return;
    }
    const auto stale = stale_keys_.find(src);
    if (!admitted(sess.attested() || stale != stale_keys_.end(),
                  config_.tolerate_byzantine, tampered_rejected_,
                  "protocol message from unattested peer")) {
      return;  // fail closed
    }
    const std::array<std::uint8_t, 8> aad = frame_aad(src, id_);
    // Current session first, then the stale key a re-attestation left
    // behind — the message may have been sealed before the sender learned
    // of the rejoin.
    Bytes& opened = plaintext_scratch();
    bool authentic =
        sess.attested() &&
        crypto::aead_open_into(sess.session_key(), sess.recv_nonce_for(seq),
                               aad, ciphertext, opened);
    StaleKey* from_stale = nullptr;
    if (!authentic && stale != stale_keys_.end()) {
      // Once this pair's keys have rotated (a rejoin replaced the session),
      // an unopenable message is a churn race, not tampering: sealed under
      // a key more than one rotation old, or under a half-open handshake's
      // new key this side has not derived yet. Real rotating-key systems
      // drop exactly these; never process unauthenticated bytes.
      const crypto::ChaChaNonce nonce = crypto::nonce_from_sequence(
          seq, src < id_ ? 0u : 1u);  // same direction rule as the session
      if (!crypto::aead_open_into(stale->second.key, nonce, aad, ciphertext,
                                  opened)) {
        ++inputs_discarded_rekey_;
        return;
      }
      authentic = true;
      from_stale = &stale->second;
    }
    // With no key rotation to blame, an unopenable payload *is* tampering.
    if (!admitted(authentic, config_.tolerate_byzantine, tampered_rejected_,
                  "authenticated decryption failed: tampered payload")) {
      return;
    }
    // Stream-level replay rejection: a position at or below the watermark
    // was already consumed (checked only after the AEAD verified, so
    // garbage cannot move the watermark).
    const bool fresh = from_stale != nullptr
                           ? seq >= from_stale->recv_sequence
                           : sess.accept_recv_sequence(seq);
    if (!admitted(fresh, config_.tolerate_byzantine, replays_rejected_,
                  "replayed secure payload")) {
      return;
    }
    if (from_stale != nullptr) from_stale->recv_sequence = seq + 1;
    plaintext = opened;
  }
  // Arrivals queue FIFO per neighbor: under event-driven scheduling a fast
  // neighbor may deliver round k+1 while we still wait on a slower one for
  // round k; RMW buffers everything since its last period (§III-C1).
  // Validate everything before mutating any node state: a rejected message
  // must leave no trace — an empty ghost slot would satisfy round_ready()
  // and crash the next merge, and accounting a rejected payload would skew
  // the cost model. (The caller may catch the Error and keep the node
  // running, as the tamper tests do.)
  //
  // First, the payload must decode, every raw rating must have a cell id,
  // the duplicate filter's key (DESIGN.md §10 "Duplicate filter"), and a
  // model blob must have the structure the merge's deserialize() accepts:
  // a rating outside the catalogue would otherwise sit in the store until
  // SGD sampled it, and a malformed blob would abort the merge. Bytes that
  // fail any of these are counted as tampering, like a frame that fails to
  // open. Native runs decode straight off the (shared, immutable) wire
  // buffer — no plaintext staging copy per delivery.
  PendingInput input = acquire_input();  // recycled decode target
  if (!admitted(
          [&] {
            ProtocolPayload::decode_into(plaintext, input.payload);
            require_cell_ids(input.payload.ratings, src);
            if (input.payload.kind == PayloadKind::kModel ||
                input.payload.kind == PayloadKind::kModelQuantized) {
              model_->require_wire_shape(input.payload.model_blob);
            }
          },
          config_.tolerate_byzantine, tampered_rejected_)) {
    recycle(std::move(input));
    return;
  }

  // A sender's epochs strictly increase and per-edge delivery is FIFO, so
  // an epoch at or below the neighbor's watermark is a resend or replay —
  // including of payloads already consumed, which the slot cannot see.
  // Merging one would silently double-weight (RMW) or permanently skew
  // (D-PSGD) that neighbor's stream. Checked before the depth cap so a
  // replay is reported as what it is; in native runs (no AEAD sequence
  // stream) it is the only guard a duplicated envelope hits.
  NeighborSlot& pending = slots_[slot];
  if (!admitted(
          pending.watermark < static_cast<std::int64_t>(input.payload.epoch),
          config_.tolerate_byzantine, replays_rejected_,
          "duplicate round message from the same neighbor")) {
    recycle(std::move(input));
    return;
  }
  if (config_.algorithm == Algorithm::kDpsgd) {
    // Pipelining is provably at most one round deep — a neighbor's round
    // k+2 share needs our round k+1 share, which needs us to consume its
    // round k — so a third buffered payload is a scheduling bug (and would
    // grow enclave memory unboundedly). Churn cannot stack them deeper:
    // shares towards a node in an outage are elided, never held back
    // (DESIGN.md §6 "Offline shares").
    REX_REQUIRE(pending.inputs.size() < 2u,
                "D-PSGD neighbor more than one round ahead: scheduling bug");
  }
  pending.watermark = static_cast<std::int64_t>(input.payload.epoch);
  pending_bytes_deserialized_ += plaintext.size();  // accepted messages only
  input.arrival = arrival_counter_++;
  if (pending.inputs.empty()) ++filled_slots_;
  pending.inputs.push_back(std::move(input));

  // D-PSGD readiness (Algorithm 2 line 13): a message from every neighbor.
  // Rejoining nodes buffer without triggering — training resumes only after
  // the resync exchange, via the engine's restarted train timer.
  if (config_.algorithm == Algorithm::kDpsgd && !rejoining_ && round_ready()) {
    rex_protocol();
  }
}

void TrustedNode::ecall_train_due() {
  REX_REQUIRE(initialized_, "train event before ecall_init");
  runtime_.record_ecall();
  if (rejoining_) return;  // training suppressed until the rejoin completes
  if (config_.algorithm == Algorithm::kRmw) {
    // RMW trains on its period with whatever arrived (§III-C1).
    rex_protocol();
  } else if (round_ready()) {
    // D-PSGD pipeline catch-up: every neighbor's next round was already
    // buffered when the previous epoch consumed its inputs, so no further
    // arrival will re-trigger the protocol — the engine schedules this
    // event when the node frees up. (At the barrier this never fires: the
    // epoch runs on last arrival.)
    rex_protocol();
  }
}

bool TrustedNode::round_ready() const {
  // filled_slots_ counts neighbors with >= 1 buffered payload.
  return initialized_ && filled_slots_ == neighbors_.size() &&
         !neighbors_.empty();
}

void TrustedNode::rex_protocol() {
  counters_ = EpochCounters{};
  counters_.epoch = epoch_;
  counters_.bytes_deserialized = pending_bytes_deserialized_;
  pending_bytes_deserialized_ = 0;
  merge_step();
  train_step();
  share_step();
  test_step();
  counters_.store_size = store_.size();
  counters_.model_params = model_->parameter_count();
  counters_.memory_bytes = memory_footprint();
  runtime_.set_resident(counters_.memory_bytes);
  ++epoch_;
}

void TrustedNode::merge_step() {
  if (filled_slots_ == 0) return;

  if (config_.algorithm == Algorithm::kDpsgd) {
    // D-PSGD consumes exactly one payload per neighbor (oldest first —
    // event-driven pipelining may buffer several rounds from a fast
    // neighbor), visited in neighbor-rank order == ascending NodeId, the
    // same order the old staging pass produced. Each slot's front payload
    // is processed *in place*: a round moves no PendingInput through a
    // staging vector, which profiled as a top merge cost at 10k nodes.
    // Model sharing gathers the Metropolis–Hastings weighted sources first
    // (§III-C2; the self weight absorbs the remainder).
    std::vector<ml::MergeSource> sources;
    double neighbor_weight_total = 0.0;
    for (NeighborSlot& slot : slots_) {
      if (slot.inputs.empty()) continue;
      const ProtocolPayload& payload = slot.inputs.front().payload;
      if (ml::RecModel* alien = merge_payload(payload, sources.size())) {
        const double w = graph::metropolis_hastings_weight(
            neighbors_.size(), payload.sender_degree);
        sources.push_back(ml::MergeSource{alien, w});
        neighbor_weight_total += w;
      }
      recycle(std::move(slot.inputs.front()));
      slot.inputs.erase(slot.inputs.begin());
      if (slot.inputs.empty()) --filled_slots_;
    }
    if (!sources.empty()) {
      model_->merge(sources, 1.0 - neighbor_weight_total);
    }
    return;
  }

  // RMW consumes everything since its last period, in arrival order ("upon
  // receiving a model, a node averages it", §III-C1 — under the barrier,
  // arrival order and neighbor-id order coincide), so its inputs stage
  // through round_scratch_ for the arrival sort.
  std::vector<PendingInput>& round = round_scratch_;
  round.clear();
  for (NeighborSlot& slot : slots_) {
    for (PendingInput& input : slot.inputs) {
      round.push_back(std::move(input));
    }
    slot.inputs.clear();
  }
  filled_slots_ = 0;
  std::sort(round.begin(), round.end(),
            [](const PendingInput& a, const PendingInput& b) {
              return a.arrival < b.arrival;
            });
  for (PendingInput& input : round) {
    if (ml::RecModel* alien = merge_payload(input.payload, 0)) {
      // Pairwise averaging in arrival order (§III-C1).
      const ml::MergeSource source{alien, 0.5};
      model_->merge(std::span<const ml::MergeSource>(&source, 1), 0.5);
    }
    recycle(std::move(input));
  }
  round.clear();
}

ml::RecModel* TrustedNode::merge_payload(const ProtocolPayload& payload,
                                         std::size_t alien_index) {
  if (config_.sharing == SharingMode::kRawData) {
    // Algorithm 2 line 16: append all non-duplicate alien data items.
    if (payload.kind == PayloadKind::kRawData ||
        payload.kind == PayloadKind::kRawDataCompressed) {
      append_raw_data(payload.ratings);
    }
    return nullptr;
  }
  if (payload.kind != PayloadKind::kModel &&
      payload.kind != PayloadKind::kModelQuantized) {
    return nullptr;
  }
  // The blob self-describes its codec; deserialize dispatches on it.
  // deserialize overwrites every field, so recycling scratch clones avoids
  // re-running the (expensive) random initialization of a factory-fresh
  // model per merge.
  ml::RecModel& alien = alien_scratch(alien_index);
  alien.deserialize(payload.model_blob);
  counters_.merged_params += alien.parameter_count();
  ++counters_.models_merged;
  return &alien;
}

ml::RecModel& TrustedNode::alien_scratch(std::size_t index) {
  while (alien_pool_.size() <= index) alien_pool_.push_back(model_->clone());
  return *alien_pool_[index];
}

std::uint32_t TrustedNode::cell_id(const data::Rating& r,
                                   std::uint64_t n_items) {
  return static_cast<std::uint32_t>(r.user * n_items + r.item);
}

void TrustedNode::require_cell_ids(std::span<const data::Rating> ratings,
                                   NodeId from) const {
  const std::uint64_t n_items = model_->item_count();
  const auto bad = std::find_if(
      ratings.begin(), ratings.end(), [n_items](const data::Rating& r) {
        return r.item >= n_items || r.user * n_items + r.item > UINT32_MAX;
      });
  REX_REQUIRE(bad == ratings.end(),
              "raw rating from node " + std::to_string(from) + " (user " +
                  std::to_string(bad->user) + ", item " +
                  std::to_string(bad->item) + ") has no 32-bit cell id in a " +
                  std::to_string(n_items) + "-item catalogue");
}

void TrustedNode::append_raw_data(const std::vector<data::Rating>& ratings) {
  const std::uint64_t n_items = model_->item_count();
  store_index_.insert_batch(
      ratings,
      [n_items](const data::Rating& r) { return cell_id(r, n_items); },
      [this](const data::Rating& r, bool inserted) {
        if (inserted) {
          store_.push_back(r);
          ++counters_.ratings_appended;
        } else {
          ++counters_.duplicates_dropped;
        }
      });
}

void TrustedNode::train_step() {
  if (config_.fixed_batches_per_epoch) {
    // Fixed-batches rule (§III-E): work per epoch is a model constant, not
    // a function of store size.
    model_->train_epoch(store_, rng_);
    counters_.sgd_samples +=
        store_.empty() ? 0 : model_->train_samples_per_epoch();
  } else {
    // Ablation: one full shuffled pass over the (growing) store per epoch.
    model_->train_full_pass(store_, rng_);
    counters_.sgd_samples += store_.size();
  }
}

namespace {

/// Encoded length of a BinaryWriter varint (LEB128: 7 bits per byte).
std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace

void TrustedNode::share_step() {
  if (neighbors_.empty()) return;
  const ProtocolPayload payload = build_share_payload();
  // Encode once, into recycled pool storage; only the per-peer encryption
  // differs between destinations.
  Bytes plaintext = payload.encode(payload_pool_.acquire());

  // Wire-compression savings, per message: what the uncompressed encoding
  // of this share would have cost minus what it actually costs. The header
  // (kind + epoch varint + degree) is identical between the codec pairs,
  // so whole-plaintext arithmetic is exact; for the other kinds the header
  // alone never exceeds the plaintext, so nothing is saved.
  std::size_t plain_size =
      1 + varint_len(payload.epoch) + sizeof(std::uint32_t);
  if (payload.kind == PayloadKind::kRawDataCompressed) {
    plain_size +=
        varint_len(payload.ratings.size()) + 12 * payload.ratings.size();
  } else if (payload.kind == PayloadKind::kModelQuantized) {
    const std::size_t blob = model_->wire_size();  // raw-f32 codec size
    plain_size += varint_len(blob) + blob;
  }
  const std::size_t saved_per_message =
      plain_size > plaintext.size() ? plain_size - plaintext.size() : 0;

  std::span<const NodeId> dsts = neighbors_;  // D-PSGD: all (§III-C2)
  if (config_.algorithm == Algorithm::kRmw) {
    // One uniformly random neighbor (§III-C1).
    dsts = dsts.subspan(rng_.uniform(neighbors_.size()), 1);
  }
  const std::size_t plaintext_size = plaintext.size();
  const std::size_t sent =
      send_payload(dsts, net::MessageKind::kProtocol, std::move(plaintext));
  // Secure runs skip a destination whose session is mid-re-attestation
  // (the peer is rejoining, DESIGN.md §6): there is no key to seal under
  // yet, and the rejoiner's resync pull covers the gap. Only messages that
  // left count, compression savings included.
  shares_skipped_unattested_ += dsts.size() - sent;
  counters_.messages_sent += sent;
  counters_.bytes_serialized += sent * plaintext_size;
  counters_.bytes_saved_compression += sent * saved_per_message;
}

ProtocolPayload TrustedNode::payload_header(PayloadKind kind) const {
  ProtocolPayload payload;
  payload.kind = kind;
  payload.epoch = epoch_;
  payload.sender_degree = static_cast<std::uint32_t>(neighbors_.size());
  return payload;
}

ProtocolPayload TrustedNode::build_share_payload() {
  ProtocolPayload payload = payload_header(PayloadKind::kEmpty);
  if (config_.sharing == SharingMode::kRawData) {
    if (store_.empty() || config_.data_points_per_epoch == 0) return payload;
    // Stateless random sampling with replacement (§III-E): nodes may resend
    // the same items; receivers dedupe.
    payload.kind = config_.compress_raw_data
                       ? PayloadKind::kRawDataCompressed
                       : PayloadKind::kRawData;
    payload.ratings.reserve(config_.data_points_per_epoch);
    for (std::size_t i = 0; i < config_.data_points_per_epoch; ++i) {
      payload.ratings.push_back(store_[rng_.uniform(store_.size())]);
    }
    counters_.ratings_shared += payload.ratings.size();
  } else if (config_.quantize_model_shares) {
    // MS with the quantized codec: ~4x smaller on the wire, bounded
    // per-parameter error (the receive path dispatches on the blob magic).
    payload.kind = PayloadKind::kModelQuantized;
    payload.model_blob = model_->serialize_quantized();
  } else {
    payload.kind = PayloadKind::kModel;
    payload.model_blob = model_->serialize();
  }
  return payload;
}

std::size_t TrustedNode::send_payload(std::span<const NodeId> dsts,
                                      net::MessageKind kind,
                                      Bytes plaintext) {
  const bool secure = runtime_.secure();
  // Native runs: the plaintext *is* the wire. One refcounted buffer serves
  // every edge — a share to k neighbors stores its bytes exactly once.
  // Secure runs seal per destination: each attested session has its own
  // key and nonce stream, so zero-copy fan-out stops at the sealing
  // boundary.
  const SharedBytes plain_wire =
      secure ? SharedBytes{}
             : SharedBytes::pooled(payload_pool_, std::move(plaintext));
  std::size_t sent = 0;
  for (NodeId dst : dsts) {
    if (secure && !attested_with(dst)) continue;
    // Explicit-sequence framing (DESIGN.md §6): the position travels in
    // cleartext so a receiver that lost messages to an outage still
    // derives the right nonce.
    SharedBytes wire =
        secure ? seal_framed(session(dst), dst,
                             kind == net::MessageKind::kResync, plaintext)
               : plain_wire;
    runtime_.record_crypto(wire.size());  // no-ops in native runs
    runtime_.record_ocall();
    send_(dst, kind, std::move(wire));
    ++sent;
  }
  if (secure) {
    payload_pool_.release(std::move(plaintext));
  } else {
    plaintext_shares_sent_ += sent;  // native wire is plaintext (audit)
  }
  return sent;
}

void TrustedNode::test_step() {
  counters_.rmse = model_->rmse(test_data_);
  counters_.test_predictions += test_data_.size();
}

std::size_t TrustedNode::memory_footprint() const {
  if (!initialized_) return 0;
  // Model + optimizer state, the raw-data store, its duplicate-filter index,
  // the local test set, and the pending payload buffers. The index is a
  // FlatSet32 (4 B slots at 1/2 to 3/4 load); it is charged a flat 16 B
  // per key, the figure the EPC accounting has always used, so enclave
  // memory charges depend on neither the table's slot width nor its load
  // bound.
  std::size_t bytes = model_->memory_footprint();
  // Merge scratch buffers (model sharing materializes alien models).
  for (const auto& alien : alien_pool_) bytes += alien->memory_footprint();
  bytes += store_.capacity() * sizeof(data::Rating);
  bytes += store_index_.size() * 16;
  bytes += test_data_.capacity() * sizeof(data::Rating);
  for (const NeighborSlot& slot : slots_) {
    for (const PendingInput& input : slot.inputs) {
      bytes += input.payload.model_blob.size() +
               input.payload.ratings.capacity() * sizeof(data::Rating);
    }
  }
  return bytes;
}

}  // namespace rex::core
