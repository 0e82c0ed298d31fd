// Trusted (in-enclave) REX node: Algorithm 2 of the paper.
//
// Everything here conceptually runs inside the enclave: the raw-data store,
// the model, attestation sessions and session keys. The class performs no
// I/O — outbound messages leave through an injected ocall callback, exactly
// the trusted/untrusted split of Algorithms 1 and 2. The same code serves
// native runs (Runtime in kNative mode skips encryption and accounting),
// mirroring the paper's single-codebase approach (§III-E).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/epoch_counters.hpp"
#include "core/payload.hpp"
#include "data/dataset.hpp"
#include "enclave/attestation.hpp"
#include "enclave/runtime.hpp"
#include "ml/model.hpp"
#include "ml/topk.hpp"
#include "net/message.hpp"
#include "support/flat_set32.hpp"

namespace rex::core {

using NodeId = net::NodeId;

/// Arguments of ecall_init (Algorithm 2 line 2: "extract(args)").
struct TrustedInit {
  std::vector<data::Rating> local_train;
  std::vector<data::Rating> local_test;
  std::vector<NodeId> neighbors;
};

class TrustedNode {
 public:
  /// `send` is the ocall_send proxy (Algorithm 1 lines 7-8): it receives the
  /// destination and the (possibly encrypted) blob as a refcounted buffer —
  /// a fan-out to k neighbors passes the *same* storage k times.
  using SendFn =
      std::function<void(NodeId dst, net::MessageKind kind, SharedBytes blob)>;

  /// `payload_pool` recycles outbound payload storage: encode scratch is
  /// acquired from it and returns to it when the last envelope referencing
  /// the blob is consumed.
  TrustedNode(const RexConfig& config, NodeId id,
              enclave::Runtime& runtime,
              const enclave::EnclaveIdentity& identity,
              const enclave::QuotingEnclave* quoting_enclave,
              const enclave::DcapVerifier* verifier,
              ml::ModelFactory model_factory, std::uint64_t seed,
              SendFn send, BufferPool& payload_pool);

  // ===== Attestation phase (§III-A) =====

  /// Registers the neighbor set and opens attestation sessions. Initiates
  /// towards higher-id neighbors (each pair handshakes once).
  void start_attestation(const std::vector<NodeId>& neighbors);

  /// Handles one attestation message (cleartext JSON). An `att_challenge`
  /// hitting an attested (or failed) session is a peer's rejoin: the old
  /// session is torn down — its key retained for in-flight traffic — and a
  /// fresh handshake runs (DESIGN.md §6). A message from a non-neighbor or
  /// one that is not well formed goes through the rejection rule first and
  /// moves no session state.
  void on_attestation_message(NodeId src, BytesView blob);

  [[nodiscard]] bool attested_with(NodeId peer) const;
  [[nodiscard]] bool fully_attested() const;

  // ===== Rejoin (DESIGN.md §6) =====

  /// Starts the rejoin protocol after an outage. Secure runs tear down and
  /// re-initiate the attestation session with every peer in `online_peers`
  /// (this node initiates regardless of id order — it is the one returning)
  /// and pull each peer's current model once that pair re-attests; native
  /// runs skip straight to the resync pulls. Training stays suppressed —
  /// ecall_train_due is a no-op and buffered rounds do not trigger — until
  /// rejoining() clears (the sim engine restarts the train timer then).
  void begin_rejoin(const std::vector<NodeId>& online_peers);

  /// True while a rejoin is awaiting re-attestations or resync replies.
  [[nodiscard]] bool rejoining() const { return rejoining_; }

  /// Force-completes a rejoin (the engine's watchdog: a contacted peer
  /// churned away mid-exchange). Late resync replies are still merged.
  void finish_rejoin();

  /// ecall for a kResync envelope: a kResyncRequest is answered with the
  /// current model; a kResyncModel reply is averaged into our model
  /// (pairwise, the §III-C1 merge rule) so the node re-enters the pipeline
  /// warm instead of stale.
  void ecall_resync(NodeId src, BytesView blob);

  /// Model-blob bytes this node served in resync replies (conservation
  /// tests: every resync byte merged somewhere was served by someone).
  [[nodiscard]] std::uint64_t resync_model_bytes_sent() const {
    return resync_model_bytes_sent_;
  }
  /// Resync replies merged into this node's model.
  [[nodiscard]] std::uint64_t resync_models_merged() const {
    return resync_models_merged_;
  }
  /// Shares skipped because the destination's session was mid-re-handshake
  /// (secure runs only; the rejoiner's resync pull covers the gap).
  [[nodiscard]] std::uint64_t shares_skipped_unattested() const {
    return shares_skipped_unattested_;
  }
  /// Resync messages discarded as unverifiable under the current session.
  [[nodiscard]] std::uint64_t resync_discarded() const {
    return resync_discarded_;
  }
  /// Protocol deliveries discarded as unopenable after a key rotation.
  [[nodiscard]] std::uint64_t inputs_discarded_rekey() const {
    return inputs_discarded_rekey_;
  }

  // ===== Byzantine rejection counters (DESIGN.md §8) =====
  // Populated only with RexConfig::tolerate_byzantine (otherwise the
  // conditions below abort the run as engine bugs). The ScenarioHarness
  // reconciles these against its fault ledger at finalize.

  /// Inputs rejected as tampered: a protocol or resync envelope from a
  /// non-neighbor; a secure frame from a neighbor with no attested session,
  /// one that fails AEAD authentication (a ciphertext or tag bit flipped
  /// in flight) or is too short to carry its sequence number; a payload
  /// that does not decode, is not of its path's kinds, or carries a rating
  /// outside the catalogue or a model blob of the wrong shape; an
  /// attestation message from a node with no session, or one
  /// AttestationSession::require_well_formed refuses (DESIGN.md §8
  /// "Byzantine accounting").
  [[nodiscard]] std::uint64_t tampered_rejected() const {
    return tampered_rejected_;
  }
  /// Secure shares rejected by the sequence/watermark replay checks — a
  /// duplicated or replayed envelope re-presenting a consumed position.
  [[nodiscard]] std::uint64_t replays_rejected() const {
    return replays_rejected_;
  }
  /// Attestation handshakes failed closed on an unverifiable quote
  /// (counted unconditionally — fail-closed is already the benign policy).
  [[nodiscard]] std::uint64_t quote_forgeries_rejected() const {
    return quote_forgeries_rejected_;
  }
  /// Plaintext (unsealed) share/resync payloads this node emitted — stays
  /// zero for the run's lifetime in secure mode ("no unattested plaintext
  /// leaves a node"; the InvariantChecker sweeps it network-wide).
  [[nodiscard]] std::uint64_t plaintext_shares_sent() const {
    return plaintext_shares_sent_;
  }

  /// Attestation state of the session with `peer` (kIdle when no session
  /// exists) — read by the engine's re-attestation sweep.
  [[nodiscard]] enclave::AttestationState session_state(NodeId peer) const;

  /// Re-attestation sweep entry point (DESIGN.md §8 "Re-attestation
  /// sweep"): tears down the session with `peer` (retaining the stale-key
  /// fallback) and initiates a fresh handshake, exactly as a rejoin would —
  /// but without the resync pull, since this node's model never left.
  void heal_attestation(NodeId peer);

  // ===== Protocol phase (Algorithm 2) =====

  /// ecall_init: copies the local dataset into protected memory, initializes
  /// the model and runs epoch 0 (train on initial data, share, test).
  void ecall_init(TrustedInit init);

  /// ecall_input: protocol message from `src`. Decrypts (SGX mode), buffers,
  /// and — for D-PSGD — runs the epoch once all neighbors delivered.
  void ecall_input(NodeId src, BytesView blob);

  /// Train-timer event: RMW trains every period regardless of arrivals
  /// (§III-C1); the period itself (RexConfig::rmw_period_s) is scheduled by
  /// the simulation engine. For D-PSGD this runs a pipeline catch-up epoch
  /// if a full round is already buffered, else it is a no-op.
  void ecall_train_due();

  /// D-PSGD readiness: one (or more) buffered payloads from every neighbor.
  [[nodiscard]] bool round_ready() const;

  // ===== Serving path (DESIGN.md §9) =====

  /// One answered recommendation query: the ranked list plus the model
  /// epoch that produced it (the staleness stamp). `items` points into the
  /// node's reusable top-k scratch — valid until the next query_topk call.
  struct QueryAnswer {
    std::span<const ml::ScoredItem> items;
    std::uint64_t epoch = 0;
  };

  /// Serves one top-k recommendation query against the current model,
  /// excluding items `user` already rated in this node's raw-data store.
  /// Read-only on protocol state: no epoch/runtime counters move, so an
  /// interleaved query load cannot perturb training metrics.
  [[nodiscard]] QueryAnswer query_topk(data::UserId user, std::size_t k);

  /// Users whose ratings landed in this node's initial local partition —
  /// the population the traffic generator samples "local" queries from.
  [[nodiscard]] std::size_t local_user_count() const {
    return local_users_.size();
  }
  [[nodiscard]] data::UserId local_user(std::size_t index) const {
    return local_users_[index];
  }

  // ===== Introspection (read by the simulator / tests) =====

  [[nodiscard]] const EpochCounters& last_epoch() const { return counters_; }
  [[nodiscard]] std::uint64_t epochs_completed() const { return epoch_; }
  [[nodiscard]] double last_rmse() const { return counters_.rmse; }
  [[nodiscard]] std::size_t store_size() const { return store_.size(); }
  /// The raw-data store in append order (local partition first).
  [[nodiscard]] std::span<const data::Rating> store() const { return store_; }
  [[nodiscard]] const ml::RecModel& model() const { return *model_; }
  [[nodiscard]] std::size_t memory_footprint() const;
  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::vector<NodeId>& neighbors() const {
    return neighbors_;
  }

 private:
  // The four protocol steps (Algorithm 2 lines 13-21).
  void rex_protocol();
  void merge_step();
  void train_step();
  void share_step();
  void test_step();

  /// Sends `plaintext` to `dsts` in order on `kind`'s plane; returns how
  /// many left. Native runs share one buffer across every edge; secure runs
  /// seal per attested destination and skip the rest (callers' policy).
  std::size_t send_payload(std::span<const NodeId> dsts,
                           net::MessageKind kind, Bytes plaintext);
  /// A payload of `kind` stamped with this node's epoch and degree.
  [[nodiscard]] ProtocolPayload payload_header(PayloadKind kind) const;
  [[nodiscard]] ProtocolPayload build_share_payload();
  /// Merges one consumed payload: raw data into the store, a model into
  /// alien scratch `alien_index`, returned for the caller's merge rule.
  ml::RecModel* merge_payload(const ProtocolPayload& payload,
                              std::size_t alien_index);
  /// Reusable alien-model buffer for merge_step (grown on demand).
  [[nodiscard]] ml::RecModel& alien_scratch(std::size_t index);
  void append_raw_data(const std::vector<data::Rating>& ratings);
  /// A rating's position in the user x item matrix of an `n_items`
  /// catalogue: its key in the duplicate filter (DESIGN.md §10 "Duplicate
  /// filter"). Valid for ratings that passed require_cell_ids.
  [[nodiscard]] static std::uint32_t cell_id(const data::Rating& r,
                                             std::uint64_t n_items);
  /// Throws, naming `from` and the first offending (user, item), unless
  /// every rating has a cell id: item < item_count() and
  /// user x item_count() + item < 2^32.
  void require_cell_ids(std::span<const data::Rating> ratings,
                        NodeId from) const;
  [[nodiscard]] enclave::AttestationSession& session(NodeId peer);
  /// Opens a fresh (idle) attestation session with `peer`.
  void open_session(NodeId peer);

  /// Tears down the session with `peer` and opens a fresh one, retaining an
  /// attested session's key (+ receive position) as the stale-key fallback
  /// for traffic that was in flight across the re-attestation.
  void replace_session(NodeId peer);
  /// Sends one attestation handshake message to `peer` (one ocall).
  void send_attestation(NodeId peer, const serialize::Json& message);
  /// replace_session + a fresh challenge to `peer` (rejoin and heal).
  void restart_handshake(NodeId peer);
  /// Sends the resync pull to `peer` if it is still owed one (rejoin).
  void maybe_send_resync_request(NodeId peer);
  /// Encrypts (secure mode) and sends one resync payload to `peer`.
  void send_resync(NodeId peer, const ProtocolPayload& payload);

  // ===== Explicit-sequence AEAD framing (DESIGN.md §6) =====
  // One wire format for every secure payload: [send seq le64 || AEAD
  // ciphertext], AAD = (sender id, receiver id). Shared by the protocol
  // and resync planes so the framing cannot drift between them; only the
  // failure policy differs at the call sites.
  /// Seals `plaintext` for `peer`, allocating the next position on the
  /// session's protocol or resync send stream. The frame is written into
  /// one buffer from the payload pool that returns to it once the receiver
  /// consumed the envelope.
  [[nodiscard]] SharedBytes seal_framed(enclave::AttestationSession& session,
                                        NodeId peer, bool resync_plane,
                                        BytesView plaintext);

  RexConfig config_;
  NodeId id_;
  enclave::Runtime& runtime_;
  enclave::EnclaveIdentity identity_;
  const enclave::QuotingEnclave* quoting_enclave_;
  const enclave::DcapVerifier* verifier_;
  ml::ModelFactory model_factory_;
  SendFn send_;
  BufferPool& payload_pool_;  // outbound payload recycling

  Rng rng_;             // training / sampling / neighbor choice
  crypto::Drbg drbg_;   // attestation key material

  std::vector<NodeId> neighbors_;
  std::map<NodeId, enclave::AttestationSession> sessions_;

  // ===== Rejoin state (DESIGN.md §6) =====
  /// A previous session's receive key, kept when re-attestation replaces
  /// the session: envelopes sealed under the old key can still be in flight
  /// (sent before the peer learned of the rejoin), and rejecting them would
  /// be indistinguishable from tampering. One stale key per peer (the
  /// latest); its receive counter continues where the old session stopped.
  struct StaleKey {
    crypto::ChaChaKey key{};
    std::uint64_t recv_sequence = 0;
  };
  std::map<NodeId, StaleKey> stale_keys_;
  bool rejoining_ = false;
  /// Peers owed a resync pull once their session re-attests (secure mode).
  std::vector<NodeId> resync_pending_;
  /// Resync replies outstanding; rejoining_ clears when this hits zero.
  std::size_t resync_awaited_ = 0;
  /// Rejoin generation: stamped into resync requests and echoed by the
  /// reply, so a reply that outlived its rejoin (watchdog fired, another
  /// outage and rejoin happened) cannot complete the newer rejoin.
  std::uint64_t rejoin_gen_ = 0;
  std::uint64_t resync_model_bytes_sent_ = 0;
  std::uint64_t resync_models_merged_ = 0;
  std::uint64_t shares_skipped_unattested_ = 0;
  /// Resync messages discarded: sealed under a session a further churn
  /// already replaced (authenticated-or-ignored; see ecall_resync).
  std::uint64_t resync_discarded_ = 0;
  /// Protocol deliveries discarded as unopenable after this pair's keys
  /// rotated: sealed under a key more than one rotation old, or under a
  /// half-open handshake's key this side has not derived yet.
  std::uint64_t inputs_discarded_rekey_ = 0;
  // Byzantine rejection counters (DESIGN.md §8; see the accessors).
  std::uint64_t tampered_rejected_ = 0;
  std::uint64_t replays_rejected_ = 0;
  std::uint64_t quote_forgeries_rejected_ = 0;
  std::uint64_t plaintext_shares_sent_ = 0;

  std::unique_ptr<ml::RecModel> model_;
  std::vector<std::unique_ptr<ml::RecModel>> alien_pool_;  // merge scratch
  std::vector<data::Rating> store_;       // raw-data store (protected memory)
  FlatSet32 store_index_;                 // duplicate filter (hot path)
  std::vector<data::Rating> test_data_;

  /// One buffered protocol input: the payload plus its arrival rank (the
  /// order ecall_input saw it), so RMW can merge in true arrival order
  /// (§III-C1) even when the event engine interleaves neighbors.
  struct PendingInput {
    ProtocolPayload payload;
    std::uint64_t arrival = 0;
  };

  /// Index of `src` in the sorted neighbors_ list, or neighbors_.size()
  /// when `src` is not a neighbor.
  [[nodiscard]] std::size_t neighbor_index(NodeId src) const;
  /// Takes `neighbors` (sorted) as the neighbor set and sizes the
  /// per-neighbor slot arrays to it.
  void adopt_neighbors(const std::vector<NodeId>& neighbors);
  /// Recycled PendingInput (freelist pop or fresh).
  [[nodiscard]] PendingInput acquire_input();
  /// Returns a spent input to the freelist, emptied but keeping its
  /// buffers' capacity for the next delivery's decode.
  void recycle(PendingInput&& input);

  /// Per-neighbor receive state (indexed by neighbor rank, parallel to
  /// neighbors_): the FIFO of buffered inputs plus the replay watermark —
  /// the highest epoch ever buffered (-1 = none), which rejects replays of
  /// epochs already consumed (the FIFO alone cannot see those). D-PSGD
  /// consumes one payload per neighbor per round and admits at most two
  /// buffered (the event-driven pipeline is provably one round deep; a
  /// third is a duplicate send). RMW buffers every arrival since the last
  /// period — a fast neighbor can legitimately deliver several times
  /// between two of our train timers (§III-C1). One flat vector, not a
  /// NodeId-keyed map: the receive path at 10k nodes must not pay tree-node
  /// allocations (or extra cache lines) per delivery.
  struct NeighborSlot {
    std::int64_t watermark = -1;
    std::vector<PendingInput> inputs;
  };
  std::vector<NeighborSlot> slots_;
  /// Slots currently holding >= 1 input (D-PSGD readiness test in O(1)).
  std::size_t filled_slots_ = 0;
  /// Spent PendingInputs, recycled so decode_into reuses their ratings /
  /// model_blob capacity instead of allocating per delivery.
  std::vector<PendingInput> input_pool_;
  std::vector<PendingInput> round_scratch_;  // merge_step staging
  std::uint64_t arrival_counter_ = 0;

  // ===== Serving state (DESIGN.md §9) =====
  /// Sorted unique users of the initial local partition (query population).
  std::vector<data::UserId> local_users_;
  ml::TopKIndex topk_;
  /// Seen-item exclusion mask scratch, cached per (user, store size): a
  /// burst of queries for a hot user between two epochs rebuilds it once.
  std::vector<std::uint8_t> seen_mask_;
  data::UserId seen_mask_user_ = 0;
  std::size_t seen_mask_store_size_ = 0;
  bool seen_mask_valid_ = false;

  std::uint64_t epoch_ = 0;
  bool initialized_ = false;
  EpochCounters counters_;
  /// Deserialization bytes accrued by ecall_input between epochs; folded
  /// into the next epoch's counters (the epoch that consumes the messages).
  std::uint64_t pending_bytes_deserialized_ = 0;
};

}  // namespace rex::core
