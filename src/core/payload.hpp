// Protocol payload: what travels (encrypted, under SGX) between REX nodes
// each epoch — either a batch of raw rating triplets or a serialized model,
// plus the sender degree needed for Metropolis–Hastings weighting (§III-C2).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "support/bytes.hpp"

namespace rex::core {

enum class PayloadKind : std::uint8_t {
  kEmpty = 0,    // barrier keep-alive ("possibly empty" messages, §III-B)
  kRawData = 1,  // REX: sampled rating triplets
  kModel = 2,    // MS baseline: serialized model parameters
  /// REX with the §IV-E-e compressed codec (delta ids + nibble-packed
  /// half-star codes; ~3x smaller). Decodes into `ratings` like kRawData —
  /// batch order is sorted (user, item), which is fine because receivers
  /// treat batches as sets.
  kRawDataCompressed = 3,
  /// Rejoin resync pull (DESIGN.md §6): a returning node asks an online
  /// neighbor for its current model. `epoch` is the requester's last
  /// completed epoch (diagnostic); no body beyond the header.
  kResyncRequest = 4,
  /// Rejoin resync reply: the neighbor's current model parameters in
  /// `model_blob`, `epoch` = the neighbor's completed-epoch count. Travels
  /// refcounted through the zero-copy SharedBytes path like any share.
  kResyncModel = 5,
  /// MS baseline with the quantized model codec: `model_blob` carries the
  /// model's serialize_quantized() output (q8 affine per tensor, ~4x
  /// smaller). A separate kind — not a flag on kModel — so receivers can
  /// account compressed traffic without sniffing blob magics; the blob
  /// itself is self-describing, so the merge path treats both identically.
  kModelQuantized = 6,
};

struct ProtocolPayload {
  PayloadKind kind = PayloadKind::kEmpty;
  std::uint64_t epoch = 0;
  std::uint32_t sender_degree = 0;
  /// Rejoin correlation id (kResyncRequest/kResyncModel only): the
  /// requester's rejoin generation, echoed back in the reply so a reply
  /// that outlived its rejoin (watchdog fired, node churned and rejoined
  /// again) cannot complete a newer rejoin it does not belong to.
  std::uint64_t resync_gen = 0;
  std::vector<data::Rating> ratings;  // kRawData
  Bytes model_blob;                   // kModel / kModelQuantized

  /// `scratch` (optional) donates its heap capacity to the encoding — pass
  /// a recycled BufferPool buffer to keep the share path allocation-free.
  [[nodiscard]] Bytes encode(Bytes scratch = Bytes{}) const;
  [[nodiscard]] static ProtocolPayload decode(BytesView bytes);
  /// Decodes into `out`, recycling its ratings/model_blob heap capacity —
  /// the receive path's counterpart of encode(scratch).
  static void decode_into(BytesView bytes, ProtocolPayload& out);
};

}  // namespace rex::core
