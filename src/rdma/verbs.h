#ifndef ASYMNVM_RDMA_VERBS_H_
#define ASYMNVM_RDMA_VERBS_H_

/**
 * @file
 * One-sided RDMA verbs emulation.
 *
 * Substitutes for the Mellanox CX-3 InfiniBand fabric of Section 9.1.
 * Front-end sessions access back-end NVM exclusively through this layer:
 * RDMA_Read, RDMA_Write, and the atomic verbs (compare-and-swap,
 * fetch-and-add, atomic 8-byte read) the paper builds its locks and
 * metadata updates on (Sections 3.3 and 6).
 *
 * Every verb charges the issuing session's virtual clock the round-trip
 * latency plus payload wire time, and reserves service at the target
 * back-end's shared NIC model — reproducing exactly the cost structure the
 * paper's optimizations attack (verb count on the critical path) and the
 * IOPS ceiling behind the multi-front-end scaling figures.
 *
 * Failure injection hooks here at two severities. Fail-stop: an armed
 * crash (sim/failure.h) tears the in-flight write at a 64-byte boundary
 * and makes subsequent verbs to that back-end fail with
 * Status::BackendCrashed, which the front-end observes "through the
 * feedback from RNIC" (Case 3, Section 7.2). Transient: a FaultModel
 * (sim/fault.h) drops, delays or duplicates completions and flips queue
 * pairs into the error state — those this layer absorbs itself with a
 * RetryPolicy: per-verb timeouts, capped exponential backoff with
 * deterministic jitter charged to the virtual clock, and QP
 * reset/reconnect before re-issuing. Only fail-stop conditions (and
 * transient storms that outlive every retry) escape to the session.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/rand.h"
#include "common/stats.h"
#include "common/types.h"
#include "nvm/nvm_device.h"
#include "sim/clock.h"
#include "sim/failure.h"
#include "sim/fault.h"
#include "sim/latency.h"
#include "sim/nic.h"

namespace asymnvm {

/** Everything a front-end NIC needs to know about one reachable back-end. */
struct RdmaTarget
{
    NvmDevice *nvm = nullptr;
    NicModel *nic = nullptr;
    FailureInjector *fail = nullptr;
    FaultModel *faults = nullptr; //!< transient-fault source (may be null)
    /**
     * Invoked after any one-sided write or atomic lands bytes in the
     * target's NVM (offset, length). Back-ends hook this to stage the
     * range into their mirror-replication batch — without it, one-sided
     * mutations (lock words, ring pads, lock-ahead records) would bypass
     * replication and a promoted mirror could hold stale bytes where the
     * front-end wrote directly. Not called when the write tore under a
     * fail-stop crash (the node is dead; its mirror keeps the pre-crash
     * image).
     */
    std::function<void(uint64_t, size_t)> on_write;
};

/**
 * Transient-failure handling knobs of one RDMA endpoint. Defaults follow
 * the usual RNIC shape: detection (the verb timeout) costs an order of
 * magnitude more than the verb itself, backoff starts around one RTT and
 * doubles to a cap, and every delay is jittered to avoid retry lockstep
 * between sessions. All times are virtual nanoseconds.
 */
struct RetryPolicy
{
    uint32_t max_attempts = 8;        //!< total tries per verb (1 = none)
    uint64_t verb_timeout_ns = 12000; //!< wait before declaring a loss
    uint64_t base_backoff_ns = 2000;  //!< first retry delay (~1 RTT)
    uint64_t max_backoff_ns = 256000; //!< exponential backoff cap
    uint64_t qp_reset_ns = 6000;      //!< QP reset + reconnect handshake
    double jitter = 0.5;              //!< +-50% randomization of delays
    uint64_t seed = 0x5eed;           //!< jitter PRNG seed (determinism)
};

/** A front-end session's RDMA endpoint (queue pair set). */
class Verbs
{
  public:
    Verbs(SimClock *clock, const LatencyModel *lat)
        : clock_(clock), lat_(lat), rng_(policy_.seed)
    {}

    /**
     * Identity of this endpoint's queue pair at the shared back-end NIC.
     * Sessions set it from their session id so the NIC's per-QP
     * contention model can tell the arrival streams apart; 0 (the
     * default) is an anonymous QP, which the legacy scalar model — and
     * every single-session test — never needs to distinguish.
     */
    void setQpId(uint64_t qp) { qp_id_ = qp; }
    uint64_t qpId() const { return qp_id_; }

    /**
     * QoS class stamped on every verb this endpoint issues until
     * changed. Foreground by default; recovery replay and other
     * non-critical-path work run under a ClassScope.
     */
    void setVerbClass(VerbClass cls) { verb_class_ = cls; }
    VerbClass verbClass() const { return verb_class_; }

    /** RAII re-tag of the endpoint's verb class (e.g. recovery replay). */
    class ClassScope
    {
      public:
        ClassScope(Verbs &v, VerbClass cls)
            : v_(v), prev_(v.verbClass())
        {
            v_.setVerbClass(cls);
        }
        ~ClassScope() { v_.setVerbClass(prev_); }
        ClassScope(const ClassScope &) = delete;
        ClassScope &operator=(const ClassScope &) = delete;

      private:
        Verbs &v_;
        VerbClass prev_;
    };

    /** Register a reachable back-end under its node id. */
    void attach(NodeId id, RdmaTarget target) { targets_[id] = target; }

    /** Drop a back-end (permanent failure / decommission). */
    void detach(NodeId id)
    {
        targets_.erase(id);
        chains_.erase(id);      // pending WQEs die with the queue pair
        read_chains_.erase(id); // pending read gathers too
        qp_error_.erase(id);    // so does the error state
    }

    bool isAttached(NodeId id) const { return targets_.count(id) != 0; }

    /** RDMA_Read of @p len bytes. */
    Status read(RemotePtr src, void *dst, size_t len);

    /** RDMA_Write of @p len bytes; durable in NVM once it returns Ok. */
    Status write(RemotePtr dst, const void *src, size_t len);

    /**
     * Posted (asynchronous) RDMA_Write: the caller is charged only the
     * posting overhead, not the round trip. Queue-pair ordering makes the
     * payload durable before any later synchronous verb on the same
     * endpoint completes — the mechanism behind decoupled memory-log
     * persistency (Section 4.2).
     */
    Status writeAsync(RemotePtr dst, const void *src, size_t len);

    /**
     * Append a write WQE to the target queue pair's post list WITHOUT
     * ringing the doorbell. A write whose destination continues exactly
     * where the previous posted write ended merges into the running WQE
     * as another scatter-gather entry (contiguous ring appends become one
     * RDMA_Write on the wire). The accumulated chain launches with a
     * single doorbell at the next ringDoorbell() — or rides the doorbell
     * of the next verb to the same target, which is also the queue-pair
     * ordering guarantee: every pending posted write is durable before a
     * later synchronous verb on the same target completes.
     */
    Status postWrite(RemotePtr dst, const void *src, size_t len);

    /**
     * Flush every pending post-list chain: one doorbell per target,
     * charging post_overhead_ns plus doorbell_batch_wqe_ns per WQE and
     * reserving the whole chain at the target NIC as a single arrival.
     */
    Status ringDoorbell();

    /**
     * Parallel fan-out fence: launch every pending chain (one doorbell
     * per target, CPU posting cost paid serially as on a real core) and
     * then await ALL completions together. The session's clock advances
     * by the *maximum* per-target completion time — round trip, wire
     * bytes of that target's chain, and its NIC queueing delay — instead
     * of the sum, overlapping the k round trips of a multi-back-end
     * group commit (Section 4.3 / Figure 10). After it returns every
     * chained write is durable at its target.
     */
    Status ringDoorbellFanout();

    /**
     * Append a read WQE to the target queue pair's *read* post list
     * WITHOUT ringing the doorbell. Nothing lands in @p dst yet — unlike
     * posted writes (whose payload is durable in post order), a read has
     * no result until its completion, so the data transfer happens at
     * readGather(). The read-side twin of postWrite.
     */
    Status postRead(RemotePtr src, void *dst, uint32_t len);

    /**
     * Launch every pending read chain — one doorbell per target — and
     * await all completions together. N independent reads cost one
     * posting overhead + N per-WQE costs + ONE round trip (the WQEs
     * travel and complete back-to-back) + wire time of the combined
     * payload, with the whole chain entering the target NIC as a single
     * arrival (NicModel::reserveGather). The batch is all-or-nothing: a
     * mid-chain transient fault retries the WHOLE chain under the
     * RetryPolicy; no destination buffer is written unless every WQE in
     * the chain succeeded, so callers never observe a partial gather.
     */
    Status readGather();

    /**
     * Tag the NEXT readGather with the number of independent operations
     * whose demanded reads its chains multiplex. Pipelined sessions set
     * this to the round's in-flight op count so the target NIC can
     * account multi-op arrivals (NicModel::reserveGather's ops
     * parameter); the tag is consumed by the next readGather and resets
     * to 1 afterwards. Purely observational — no cost model change.
     */
    void tagGatherOps(uint64_t ops)
    {
        next_gather_ops_ = ops == 0 ? 1 : ops;
    }

    /** WQEs pending (posted, doorbell not yet rung) across all targets. */
    uint64_t pendingWqes() const;

    /** Read WQEs pending (postRead'ed, gather not yet launched). */
    uint64_t pendingReadWqes() const;

    /**
     * Forget pending chains without charging (front-end crash: the WQEs
     * die with the process; their payloads already landed or never will).
     */
    void dropPosted()
    {
        chains_.clear();
        read_chains_.clear();
    }

    /** Atomic 8-byte read. */
    Status read64(RemotePtr src, uint64_t *out);

    /** Atomic 8-byte write. */
    Status write64(RemotePtr dst, uint64_t v);

    /** RDMA compare-and-swap; @p old receives the previous value. */
    Status compareAndSwap(RemotePtr dst, uint64_t expected, uint64_t desired,
                          uint64_t *old);

    /** RDMA fetch-and-add; @p old receives the previous value. */
    Status fetchAdd(RemotePtr dst, uint64_t delta, uint64_t *old);

    /** Replace the retry policy (reseeds the jitter PRNG). */
    void setRetryPolicy(const RetryPolicy &p)
    {
        policy_ = p;
        rng_ = Rng(p.seed);
    }

    const RetryPolicy &retryPolicy() const { return policy_; }

    /**
     * Reset a queue pair out of the error state (RTS transition),
     * charging the reconnect handshake. No-op when the QP is healthy.
     */
    void resetQp(NodeId id);

    /** True while @p id's queue pair sits in the error state. */
    bool qpInError(NodeId id) const { return qp_error_.count(id) != 0; }

    /** Verbs issued by this endpoint (round-trip count). */
    uint64_t verbsIssued() const { return verbs_issued_; }

    /** Payload bytes moved by this endpoint. */
    uint64_t bytesMoved() const { return bytes_moved_; }

    /** Per-verb-type traffic breakdown (reads/writes/posted/atomics). */
    const VerbCounters &counters() const { return counters_; }

    /** Transient-fault absorption counters (retries, backoff, resets). */
    const RetryStats &retryStats() const { return retry_stats_; }

    void resetStats()
    {
        verbs_issued_ = 0;
        bytes_moved_ = 0;
        counters_ = VerbCounters{};
        retry_stats_ = RetryStats{};
    }

    SimClock *clock() { return clock_; }
    const LatencyModel &latency() const { return *lat_; }

  private:
    /** Verb classes for retry accounting. */
    enum class VerbKind : uint8_t
    {
        Read,
        Write,
        Posted,
        Atomic,
    };

    /**
     * One queue pair's pending post list. Only accounting lives here: the
     * payloads land in NVM eagerly at postWrite (the simulator's posted
     * writes are durable in post order, which is what queue-pair ordering
     * guarantees by the time any flush completes); the chain defers the
     * *cost* — per-WQE CPU time and the NIC reservation — to the doorbell.
     */
    struct PostChain
    {
        uint64_t wqes = 0;     //!< WQEs pending after sge merging
        uint64_t bytes = 0;
        uint64_t next_off = 0; //!< merge point: one past the last sge
        bool has_tail = false; //!< next_off is valid
    };

    /** One pending read WQE: where to fetch from and where to deliver. */
    struct ReadWqe
    {
        uint64_t offset = 0; //!< source offset within the target NVM
        void *dst = nullptr; //!< front-end destination buffer
        uint32_t len = 0;
    };

    /** Common preamble: resolve target, inject failure, charge NIC. */
    Status begin(NodeId id, VerbKind kind, uint64_t write_len,
                 RdmaTarget **out);

    /** Charge one round trip of @p base_rtt plus @p payload bytes. */
    void charge(uint64_t base_rtt, uint64_t payload);

    /**
     * Charge @p chain's deferred cost. With @p own_doorbell the chain is
     * launched by an explicit doorbell (ringDoorbell); without, it rides
     * the doorbell of a following verb to the same target and only pays
     * the amortized per-WQE cost.
     */
    void flushChain(NodeId id, PostChain &chain, bool own_doorbell);

    /**
     * Run @p once (a single verb attempt on target @p id) and re-run it
     * while it fails transiently, charging a jittered exponential backoff
     * (and resetting the QP on QpError) before each retry. Returns the
     * first non-transient status, or the last one once the attempt
     * budget is spent.
     */
    template <typename Once>
    Status retrying(VerbKind kind, NodeId id, Once &&once);

    // Single-attempt verb bodies wrapped by retrying().
    Status readGatherOnce(NodeId id, const std::vector<ReadWqe> &wqes);
    Status readOnce(RemotePtr src, void *dst, size_t len);
    Status writeOnce(RemotePtr dst, const void *src, size_t len);
    Status writeAsyncOnce(RemotePtr dst, const void *src, size_t len);
    Status postWriteOnce(RemotePtr dst, const void *src, size_t len);
    Status read64Once(RemotePtr src, uint64_t *out);
    Status write64Once(RemotePtr dst, uint64_t v);
    Status compareAndSwapOnce(RemotePtr dst, uint64_t expected,
                              uint64_t desired, uint64_t *old);
    Status fetchAddOnce(RemotePtr dst, uint64_t delta, uint64_t *old);

    SimClock *clock_;
    const LatencyModel *lat_;
    std::unordered_map<NodeId, RdmaTarget> targets_;
    std::map<NodeId, PostChain> chains_;
    std::map<NodeId, std::vector<ReadWqe>> read_chains_;
    std::set<NodeId> qp_error_; //!< queue pairs in the error state
    RetryPolicy policy_;
    Rng rng_; //!< backoff jitter (seeded; deterministic)
    VerbCounters counters_;
    RetryStats retry_stats_;
    uint64_t verbs_issued_ = 0;
    uint64_t bytes_moved_ = 0;
    uint64_t qp_id_ = 0; //!< per-session QP identity at the shared NIC
    VerbClass verb_class_ = VerbClass::Foreground; //!< current QoS class
    uint64_t next_gather_ops_ = 1; //!< ops multiplexed by the next gather
    uint64_t partial_write_len_pending_ = 0;
    /** Set by begin() when this verb executes but its completion drops. */
    bool lost_completion_ = false;
};

} // namespace asymnvm

#endif // ASYMNVM_RDMA_VERBS_H_
