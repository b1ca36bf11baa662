#ifndef ASYMNVM_BACKEND_LAYOUT_H_
#define ASYMNVM_BACKEND_LAYOUT_H_

/**
 * @file
 * On-NVM layout of a back-end node.
 *
 * Everything needed for recovery lives at "well-known" locations, the
 * paper's *global naming space* (Section 5.1): the superblock at offset 0
 * describes every region; the naming table maps data-structure names to
 * their root references, locks and sequence numbers; the allocation bitmap
 * records slab usage; per-front-end areas hold the memory-log and
 * operation-log rings plus a control block with the LPN/OPN counters.
 *
 * All structures here are trivially-copyable PODs that are memcpy'd into
 * and out of simulated NVM, so their layout *is* the persistent format.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "backend/log_format.h"
#include "common/types.h"
#include "sim/nic_qos.h"

namespace asymnvm {

class NvmDevice;

/** Data-structure types registered in the naming space. */
enum class DsType : uint32_t
{
    None = 0,
    Stack,
    Queue,
    HashTable,
    SkipList,
    Bst,
    BpTree,
    MvBst,
    MvBpTree,
    Raw, //!< application-managed region
};

/** Magic value identifying a formatted AsymNVM back-end device. */
constexpr uint64_t kSuperMagic = 0x4153594d4e564d31ULL; // "ASYMNVM1"

/** Superblock at NVM offset 0: the root of the global naming space. */
struct SuperBlock
{
    uint64_t magic;
    uint32_t layout_version;
    uint32_t max_frontends;
    uint32_t max_names;
    uint32_t pad0;
    uint64_t naming_off;       //!< naming table region
    uint64_t bitmap_off;       //!< allocation bitmap region
    uint64_t bitmap_bytes;
    uint64_t felog_off;        //!< first per-front-end area
    uint64_t felog_stride;     //!< bytes per front-end area
    uint64_t memlog_ring_size;
    uint64_t oplog_ring_size;
    uint64_t rpc_ring_size;    //!< request+response rings (each this size)
    uint64_t data_off;         //!< slab data area
    uint64_t data_blocks;
    uint64_t block_size;       //!< slab granularity handed to front-ends
    uint64_t epoch;            //!< bumped on every (re)start, for fencing
};

/**
 * One entry of the naming table. Holds the root reference of a data
 * structure plus "other necessary data such as exclusive lock" stored
 * "next to the root reference" (Section 5.1): the multi-version counter,
 * the GC epoch, the reader sequence number (Section 6.3), the writer lock
 * word (Section 6.1), and a few DS-specific auxiliary words (hash-table
 * bucket array address, queue head/tail, element count, partition map).
 */
struct NamingEntry
{
    uint64_t name_hash;   //!< 0 marks a free slot
    uint32_t type;        //!< DsType
    uint32_t flags;
    uint64_t root_raw;    //!< RemotePtr::raw(); swapped atomically for MV
    uint64_t version;     //!< multi-version counter
    uint64_t gc_epoch;    //!< bumped when reclaimed NVM may be reused
    uint64_t seq_num;     //!< seqlock SN (even = quiescent)
    uint64_t writer_lock; //!< 0 = free, else front-end slot + 1
    uint64_t aux[4];      //!< DS-specific auxiliary metadata
    uint8_t reserved[40];
};

static_assert(sizeof(NamingEntry) == 128, "NamingEntry is a 128B NVM slot");

/** Byte offsets of NamingEntry fields, for direct one-sided access. */
namespace naming_field {
constexpr uint64_t kRoot = offsetof(NamingEntry, root_raw);
constexpr uint64_t kVersion = offsetof(NamingEntry, version);
constexpr uint64_t kGcEpoch = offsetof(NamingEntry, gc_epoch);
constexpr uint64_t kSeqNum = offsetof(NamingEntry, seq_num);
constexpr uint64_t kWriterLock = offsetof(NamingEntry, writer_lock);
constexpr uint64_t kAux0 = offsetof(NamingEntry, aux);
} // namespace naming_field

/**
 * Per-front-end control block: log positions and recovery bookkeeping.
 * LPN / OPN terminology follows Section 5.1 — the Log Processing Number
 * is the sequence number of the next memory-log transaction, the
 * Operation Processing Number that of the next operation log.
 */
struct LogControl
{
    uint64_t lpn;              //!< next memory-log transaction number
    uint64_t opn;              //!< next operation-log number
    uint64_t memlog_head;      //!< monotonic append offset into the ring
    uint64_t memlog_applied;   //!< logs below this offset are replayed
    uint64_t oplog_head;       //!< monotonic append offset into the ring
    uint64_t oplog_tail;       //!< oldest op log not yet covered by a tx
    uint64_t covered_opn;      //!< OPN covered by replayed transactions
    uint64_t lock_ahead;       //!< ds_id+1 while holding a writer lock
    uint64_t last_tx_off;      //!< ring offset of the latest transaction
    uint64_t last_tx_len;      //!< its byte length (0 = none)
    uint64_t session_epoch;    //!< fencing: epoch of the owning session
    uint8_t reserved[40];
};

static_assert(sizeof(LogControl) == 128, "LogControl is a 128B NVM slot");

/**
 * One per-front-end log ring and the one rule that every writer and
 * every scan of it follows. Positions are monotonic byte counts (the
 * LogControl heads); position p is byte p % size of lap p / size.
 *
 *  - placement: a record of len bytes appended at head starts at head
 *    when it fits the lap's rest, else at the next lap's start. A record
 *    longer than the ring has no placement and is refused.
 *  - pad: before a record moves to the next lap, the writer writes a
 *    kSkipMagic word at head, or zeroes when under 4 bytes remain.
 *  - skip: a reader moves to the next lap when the rest is shorter than
 *    the ring's smallest record or begins with a kSkipMagic word.
 */
struct LogRing
{
    uint64_t base = 0;       //!< device offset of the ring's first byte
    uint64_t size = 0;       //!< bytes per lap
    uint64_t min_record = 0; //!< smallest record the ring holds

    uint64_t lap(uint64_t pos) const { return pos / size; }
    uint64_t nextLap(uint64_t pos) const { return (lap(pos) + 1) * size; }
    /** Device offset of position @p pos. */
    uint64_t abs(uint64_t pos) const { return base + pos % size; }
    /** Bytes from @p pos to the end of its lap. */
    uint64_t contiguous(uint64_t pos) const { return size - pos % size; }
    /** True while appends up to @p head leave a record at @p at intact. */
    bool holds(uint64_t head, uint64_t at) const { return head - at <= size; }
    /** Start of a @p len-byte record appended at @p head; nullopt when
     *  the record is longer than the ring. */
    std::optional<uint64_t> place(uint64_t head, uint64_t len) const
    {
        if (len > size)
            return std::nullopt;
        return len <= contiguous(head) ? head : nextLap(head);
    }
    /** The pad to write at @p head when place() moved past it. */
    std::span<const uint8_t> pad(uint64_t head) const;
    /** The skip rule: where a record at or after @p pos may start. */
    uint64_t recordStart(const NvmDevice &dev, uint64_t pos) const;
    /** The op-log record at @p pos, read header first and then exactly
     *  its wire length; nullopt when it overruns the lap or is corrupt. */
    std::optional<ParsedOpLog> readOpLog(const NvmDevice &dev,
                                         uint64_t pos) const;
};

/** Static configuration of one back-end node. */
struct BackendConfig
{
    uint64_t nvm_size = 64ull << 20;       //!< total device bytes
    uint32_t max_frontends = 8;
    uint32_t max_names = 64;
    uint64_t memlog_ring_size = 1ull << 20;
    uint64_t oplog_ring_size = 256ull << 10;
    uint64_t rpc_ring_size = 8ull << 10;
    uint64_t block_size = 1024;            //!< slab granularity
    /** Lazy GC delay n + l from Section 6.2, in virtual nanoseconds. */
    uint64_t gc_delay_ns = (4000 + 1000) * 1000ull;
    /**
     * Shared-NIC per-QP contention / QoS knobs (sim/nic_qos.h). Default
     * keeps the legacy scalar model — and every existing result —
     * bit-identical; volatile configuration only, not persisted.
     */
    NicQosConfig nic_qos;
};

/** Computed region offsets for a given configuration and device size. */
struct Layout
{
    SuperBlock super{};

    /** Compute a layout; throws std::invalid_argument if it cannot fit. */
    static Layout compute(const BackendConfig &cfg);

    uint64_t namingEntryOff(DsId id) const
    {
        return super.naming_off + static_cast<uint64_t>(id) *
            sizeof(NamingEntry);
    }

    uint64_t logControlOff(uint32_t fe_slot) const
    {
        return super.felog_off + fe_slot * super.felog_stride;
    }

    /** The memory-log ring of @p fe_slot, right after its control. */
    LogRing memlogRing(uint32_t fe_slot) const
    {
        return {logControlOff(fe_slot) + sizeof(LogControl),
                super.memlog_ring_size, kMinTxWire};
    }

    /** The operation-log ring of @p fe_slot. */
    LogRing oplogRing(uint32_t fe_slot) const
    {
        const LogRing mem = memlogRing(fe_slot);
        return {mem.base + mem.size, super.oplog_ring_size, kMinOpLogWire};
    }

    uint64_t rpcReqRingOff(uint32_t fe_slot) const
    {
        const LogRing op = oplogRing(fe_slot);
        return op.base + op.size;
    }

    uint64_t rpcRespRingOff(uint32_t fe_slot) const
    {
        return rpcReqRingOff(fe_slot) + super.rpc_ring_size;
    }

    uint64_t dataOff() const { return super.data_off; }
    uint64_t dataEnd() const
    {
        return super.data_off + super.data_blocks * super.block_size;
    }
};

} // namespace asymnvm

#endif // ASYMNVM_BACKEND_LAYOUT_H_
