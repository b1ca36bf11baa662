#ifndef ASYMNVM_CHECK_CRASH_EXPLORER_H_
#define ASYMNVM_CHECK_CRASH_EXPLORER_H_

/**
 * @file
 * Systematic crash-point exploration (the recovery matrix of Section 7).
 *
 * A scripted single-writer workload runs once cleanly while the back-end's
 * FailureInjector records every RDMA verb. The explorer then re-runs the
 * identical workload from a fresh cluster once per sampled verb index —
 * and, per index, once per sampled 64-byte tear prefix of the in-flight
 * write — crashes the back-end there, performs the full recovery protocol
 * (restart, FrontendSession::failover / recover, structure reopen), and
 * audits the durable image with InvariantChecker:
 *
 *  - durability: the recovered logical state equals the shadow model after
 *    some prefix of the script no shorter than the last acked persistence
 *    point (acked ops survive);
 *  - atomicity: the prefix boundary is op-granular for logged modes — no
 *    torn operations, no half-applied batches, and annulled stack/queue
 *    ops cannot resurrect (any of those breaks prefix equality);
 *  - locks: writer locks released, seqlocks quiescent, lock-ahead clear;
 *  - heap: every reachable node sits in allocated blocks;
 *  - service: one more scripted op succeeds after recovery.
 *
 * Tear prefixes other than "nothing landed" / "everything landed" are only
 * enumerated for logged sessions: AsymNVM-Naive makes no torn-write
 * promises (it has no checksums — that is what the logs are for).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "backend/layout.h"
#include "frontend/session.h"

namespace asymnvm {

enum class WorkloadKind
{
    Stack,
    Queue,
    HashTable,
    SkipList,
};

const char *workloadName(WorkloadKind kind);

/** A back-end sized for fast per-crash-point cluster construction. */
BackendConfig sweepBackendConfig();

struct ExplorerOptions
{
    WorkloadKind kind = WorkloadKind::Stack;
    SessionConfig session = SessionConfig::rcb(1, 256ull << 10, 13);
    BackendConfig backend = sweepBackendConfig();
    uint32_t ops = 60;         //!< script length
    uint32_t flush_every = 13; //!< explicit persistentFence cadence
    uint64_t seed = 1;         //!< script randomization
    /** Verb indices sampled (evenly spaced); 0 = every verb. */
    uint32_t max_points = 64;
    /** Extra tear prefixes per write verb beyond keep-0/keep-all. */
    uint32_t max_tears_per_point = 2;
};

struct ExplorerResult
{
    uint64_t workload_verbs = 0; //!< verbs in the clean recording run
    uint64_t points_run = 0;     //!< distinct (verb, tear) points executed
    uint64_t crashes_fired = 0;
    uint64_t recoveries = 0;     //!< recoveries that completed
    uint64_t oplog_laps = 0;     //!< op-log ring laps in the clean run
    uint64_t memlog_laps = 0;    //!< memory-log ring laps in the clean run
    std::vector<std::string> violations;

    std::string violationText() const;
};

/** Run a full sweep; every violation is a recovery-invariant failure. */
ExplorerResult exploreCrashPoints(const ExplorerOptions &opt);

} // namespace asymnvm

#endif // ASYMNVM_CHECK_CRASH_EXPLORER_H_
