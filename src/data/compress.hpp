// Compact codec for rating batches (paper §IV-E-e).
//
// The paper observes that REX's raw data is highly compressible: ratings
// take only 10 discrete values (0.5..5.0 in half-star steps), and item ids
// follow a skewed popularity law. This codec exploits both:
//   - ratings are mapped to 4-bit codes and nibble-packed,
//   - (user, item) pairs are sorted and delta-encoded as varints, so ids
//     cost ~1-2 bytes instead of 8.
// Typical batches shrink ~3x versus the fixed 12-byte wire triplet. The
// codec is lossless up to batch order (receivers dedupe into a store, so
// order is immaterial — documented in encode_ratings_compressed).
#pragma once

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "serialize/binary.hpp"

namespace rex::data {

/// Encodes a batch of ratings into `w`. NOTE: the batch is encoded in
/// sorted (user, item) order — decode returns that order, not the input
/// order. REX receivers treat batches as sets (store append + dedup).
/// `scratch` holds the sorted copy (the input is not mutated); its heap
/// capacity is reused across calls, so the share path never allocates for
/// the sort pass.
void encode_ratings_compressed(serialize::BinaryWriter& w,
                               std::span<const Rating> batch,
                               std::vector<Rating>& scratch);

/// Convenience overload backed by a thread-local scratch buffer.
void encode_ratings_compressed(serialize::BinaryWriter& w,
                               std::span<const Rating> batch);

/// Decodes a batch encoded by encode_ratings_compressed into `out`
/// (cleared first, heap capacity recycled — the receive path's
/// counterpart of the scratch-taking encoder).
void decode_ratings_compressed(serialize::BinaryReader& r,
                               std::vector<Rating>& out);

}  // namespace rex::data
