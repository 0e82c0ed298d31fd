// Simulation events: the vocabulary of sim::SimEngine.
//
// Every state change in an event-driven run is one of these, ordered by a
// deterministic (simulated time, schedule sequence) key. The schedule
// sequence is assigned in a single-threaded scheduling phase that visits
// nodes in id order, so ties at the same simulated timestamp break the same
// way on every run regardless of worker-thread count (seeded tie-breaking,
// DESIGN.md §4 "Determinism").
#pragma once

#include <cstdint>

#include "net/message.hpp"
#include "support/calendar_queue.hpp"
#include "support/sim_clock.hpp"

namespace rex::sim {

enum class EventKind : std::uint8_t {
  kDeliver,     // one envelope reaches its destination host (per-edge latency)
  kTrain,       // a node's train timer fires (RMW period / barrier round)
  kShare,       // a node's queued shares hit the wire (schedules kDeliver)
  kTest,        // a node's epoch completes: metrics bookkeeping
  kChurnUp,     // a churned node comes back online (starts the rejoin)
  /// Rejoin watchdog: if the node's re-attestation + resync exchange has not
  /// finished by this time (a contacted neighbor churned away mid-handshake),
  /// the rejoin is force-completed so the node's training resumes instead of
  /// waiting forever. Event::slot carries the rejoin generation, so a
  /// deadline left over from a previous outage is ignored.
  kRejoinDeadline,
  /// Periodic re-attestation sweep (DESIGN.md §8 "Re-attestation sweep"):
  /// scans online neighbor pairs for sessions a mid-run handshake left
  /// unattested (a failed verify, or one side churning away between
  /// challenge and quote) and restarts the handshake, so broken pairs heal
  /// before the next rejoin forces them. Scheduled on node 0 only; the
  /// sweep itself visits every pair.
  kReattestSweep,
  /// One open-loop inference query arrives at a node (DESIGN.md §9
  /// "Serving path"). The top-k scoring runs in the parallel math phase;
  /// the serial hook accounts latency/staleness and chains the node's next
  /// arrival. Event::slot addresses the QueryJob state. Only scheduled when
  /// the query load is enabled, so serving-off runs keep their schedule
  /// sequence numbers — and therefore their golden dumps — byte-identical.
  kQuery,
};

[[nodiscard]] inline const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kDeliver: return "deliver";
    case EventKind::kTrain: return "train";
    case EventKind::kShare: return "share";
    case EventKind::kTest: return "test";
    case EventKind::kChurnUp: return "churn-up";
    case EventKind::kRejoinDeadline: return "rejoin-deadline";
    case EventKind::kReattestSweep: return "reattest-sweep";
    case EventKind::kQuery: return "query";
  }
  return "?";
}

struct Event {
  SimTime time;
  std::uint64_t seq = 0;  // schedule order: the deterministic tie-break
  net::NodeId node = 0;
  EventKind kind = EventKind::kTrain;
  /// SlotPool id of the state this event carries (kDeliver: the in-flight
  /// envelope; kShare: the outbox batch; kTest: the pending epoch record).
  /// Replaces the seq-keyed unordered_maps: resolving event state is an
  /// indexed vector read instead of a hash lookup per event.
  std::uint32_t slot = 0;

  /// Earliest time first; FIFO schedule order on ties.
  [[nodiscard]] bool before(const Event& other) const {
    if (!(time == other.time)) return time < other.time;
    return seq < other.seq;
  }
};

/// Comparator turning std::priority_queue (a max-heap) into a min-heap on
/// (time, seq). The engine itself schedules through a CalendarQueue; this
/// comparator remains the reference ordering the equivalence fuzz test
/// checks the calendar queue against.
struct EventAfter {
  [[nodiscard]] bool operator()(const Event& a, const Event& b) const {
    return b.before(a);
  }
};

/// CalendarQueue key extractor: the same (time, seq) order EventAfter
/// defines.
struct EventCalendarKey {
  [[nodiscard]] CalendarKey operator()(const Event& event) const {
    return CalendarKey{event.time.seconds, event.seq};
  }
};

}  // namespace rex::sim
