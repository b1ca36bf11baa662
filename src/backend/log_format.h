#ifndef ASYMNVM_BACKEND_LOG_FORMAT_H_
#define ASYMNVM_BACKEND_LOG_FORMAT_H_

/**
 * @file
 * Wire/NVM format of memory logs, transaction logs and operation logs
 * (Figure 3 of the paper), plus builder/parser helpers shared by the
 * front-end (which constructs logs) and the back-end (which validates,
 * replays, and recovers them).
 *
 * Three pluggable encodings exist behind the same builder/parser
 * surface, selected per session via SessionConfig::log_format. Every
 * record is self-identifying through its leading magic, so the back-end
 * replay/recovery scan sniffs the encoding per record and mirrors
 * replicate raw byte ranges without knowing the format at all.
 *
 *  - classic (the Figure-3 layout, bit-identical to the original):
 *
 *      TxHeader | entry* | TxFooter
 *      entry  = MemLogEntryHeader | value bytes (when flag == kInline)
 *
 *    The footer carries the commit flag and a CRC32-C checksum over the
 *    header and entries — the "end mark" used after a crash to decide
 *    whether the latest transaction tore (Section 4.2). Op-log records
 *    pay a 40 B header plus a trailing u32 CRC.
 *
 *  - header-dancing (in-cache-line logging, Cohen et al.): the record
 *    is padded to a 64 B multiple and the 8 B commit mark {commit
 *    magic, CRC} lives *inside* the final cache line, at an 8 B slot
 *    that rotates ("dances") with the LPN across the line's free slots.
 *    The mark rides the same store as the payload tail, so a record
 *    commits with one store + one persist instead of the classic
 *    payload-then-footer ordering. Op-log records use the compact 32 B
 *    OpLogHeaderC whose CRC field doubles as the commit mark.
 *
 *  - zero-based (NVLog-style packed WAL over a pre-zeroed ring):
 *    validity is the zero/non-zero state of the ring bytes themselves.
 *    The encoder interleaves one non-zero presence byte per 64 B of
 *    wire (at raw offsets ≡ 63 mod 64) plus a terminal presence byte;
 *    each presence value is derived from the record's sequence numbers,
 *    so a prefix tear leaves a zero (or mismatching) presence byte and
 *    is detected without any commit flag or CRC for small records. The
 *    back-end restores the pre-zeroed invariant off the critical path
 *    by zeroing consumed records after replay.
 *
 * An operation log record is self-delimiting and validated so the
 * recovery scan (Case 2/3, Section 7.2) can walk the ring from the last
 * covered OPN and re-execute operations whose memory logs never flushed.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "common/checksum.h"
#include "common/types.h"

namespace asymnvm {

/** Operation types recorded in operation logs. */
enum class OpType : uint8_t
{
    None = 0,
    Insert,
    Update,
    Erase,
    Push,
    Pop,
    Enqueue,
    Dequeue,
};

/** Highest OpType byte a decoder accepts; larger values are corrupt. */
constexpr uint8_t kMaxOpTypeByte = static_cast<uint8_t>(OpType::Dequeue);

/** The pluggable log encodings (see the file comment). */
enum class LogFormatKind : uint8_t
{
    Classic = 0,       //!< Figure-3 layout, bit-identical, the default
    HeaderDancing = 1, //!< rotating in-line commit mark, 64 B aligned
    ZeroBased = 2,     //!< zero/non-zero validity over pre-zeroed rings
};

const char *logFormatName(LogFormatKind fmt);

/** Memory-log entry flags (the one-byte "Flag" of Figure 3). */
enum class MemLogFlag : uint8_t
{
    kInline = 0, //!< value bytes follow the header
    kOpRef = 1,  //!< value lives in a previously flushed operation log
};

/** Header preceding each memory-log entry inside a transaction. */
struct MemLogEntryHeader
{
    uint8_t flag;      //!< MemLogFlag
    uint8_t pad[3];
    uint32_t len;      //!< value length in bytes
    uint64_t addr_raw; //!< RemotePtr::raw() destination address
};
static_assert(sizeof(MemLogEntryHeader) == 16);

/** Transaction header (shared field layout across all three formats). */
struct TxHeader
{
    uint32_t magic;       //!< kTxMagic / kTxMagicHd / kTxMagicZb
    uint32_t num_entries;
    uint32_t payload_len; //!< bytes of entries following the header
    uint32_t pad;
    uint64_t lpn;         //!< this transaction's Log Processing Number
    uint64_t ds_id;       //!< structure whose SN brackets the replay
    uint64_t covered_opn; //!< operation logs up to this OPN are covered
};
static_assert(sizeof(TxHeader) == 40);

/** Classic transaction footer: commit flag + checksum end mark. */
struct TxFooter
{
    uint32_t commit_flag; //!< kTxCommit
    uint32_t checksum;    //!< CRC32-C over header + entries
};
static_assert(sizeof(TxFooter) == 8);

constexpr uint32_t kTxMagic = 0x54584c47;   // "TXLG" (classic)
constexpr uint32_t kTxCommit = 0xc0331717;  // classic commit mark
constexpr uint32_t kOpMagic = 0x4f504c47;   // "OPLG" (classic)
constexpr uint32_t kSkipMagic = 0x534b4950; // ring wrap padding marker

constexpr uint32_t kTxMagicHd = 0x54584844;  // "TXHD" header-dancing tx
constexpr uint32_t kTxCommitHd = 0xda9c1e64; // dancing commit mark
constexpr uint32_t kOpMagicHd = 0x4f504844;  // "OPHD" header-dancing op
constexpr uint32_t kTxMagicZb = 0x54585a42;  // "TXZB" zero-based tx
constexpr uint32_t kOpMagicZb = 0x4f505a42;  // "OPZB" zero-based op

/** Classic operation-log record header; val_len bytes + u32 CRC follow. */
struct OpLogHeader
{
    uint32_t magic; //!< kOpMagic
    uint8_t op;     //!< OpType
    uint8_t pad[3];
    uint64_t ds_id;
    uint64_t opn;
    uint64_t key;
    uint32_t val_len;
    uint32_t pad2;
};
static_assert(sizeof(OpLogHeader) == 40);

/**
 * Compact operation-log header shared by the header-dancing and
 * zero-based encodings. The `check` word is the header-dancing commit
 * mark (CRC32-C over the header with check = 0 plus the value bytes);
 * zero-based records leave it 0 and rely on presence bytes instead.
 * ds_id narrows to 16 bits — the naming space is bounded far below
 * that, and the encoder falls back to classic if it ever is not.
 */
struct OpLogHeaderC
{
    uint32_t magic; //!< kOpMagicHd / kOpMagicZb
    uint8_t op;     //!< OpType
    uint8_t pad;
    uint16_t ds_id;
    uint32_t val_len;
    uint32_t check; //!< HD: CRC commit mark; ZB: 0
    uint64_t opn;
    uint64_t key;
};
static_assert(sizeof(OpLogHeaderC) == 32);

// ---------------------------------------------------------------------
// Format geometry helpers (shared by builder, parser and the back-end
// recovery scan, which must size reads before it can parse).
// ---------------------------------------------------------------------

constexpr size_t alignUp8(size_t v) { return (v + 7) & ~size_t{7}; }
constexpr size_t alignUp64(size_t v) { return (v + 63) & ~size_t{63}; }

/** Raw (stuffed) position of logical byte @p i in a zero-based record:
 *  every 64th raw byte (offset ≡ 63 mod 64) is a presence byte. */
constexpr size_t zbRawPos(size_t i) { return i + i / 63; }

/** Raw bytes consumed by @p logical_len logical bytes (presence
 *  interleaved, terminal byte NOT included). */
constexpr size_t zbRawLen(size_t logical_len)
{
    return logical_len == 0 ? 0 : zbRawPos(logical_len - 1) + 1;
}

/** Full wire length of a zero-based record: stuffed bytes + terminal. */
constexpr size_t zbWireLen(size_t logical_len)
{
    return zbRawLen(logical_len) + 1;
}

/** Presence byte expected at raw offset @p raw_pos. The high bit is
 *  always set (never zero, and never collides with the all-ASCII skip
 *  marker), the low bits mix the record's sequence seed with the
 *  position so stale bytes of a different record mismatch. */
constexpr uint8_t zbPresenceByte(uint8_t seed, size_t raw_pos)
{
    return static_cast<uint8_t>(
        0x80u | ((seed + (raw_pos / 64) * 37u + raw_pos) & 0x7fu));
}

/** Per-record presence seed derived from header sequence fields. */
constexpr uint8_t zbSeed(uint64_t a, uint64_t b)
{
    const uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x7f4a7c15u);
    return static_cast<uint8_t>(x ^ (x >> 32) ^ (x >> 17));
}

/** Wire length of a header-dancing transaction with @p body logical
 *  bytes (header + entries): padded to 64 B with room for the mark. */
constexpr size_t hdTxWireLen(size_t body)
{
    return alignUp64(body + sizeof(TxFooter));
}

/** Offset of the dancing 8 B commit mark: an aligned slot in the free
 *  space after the body, rotated by the LPN. Free space is at least
 *  8 B by construction of hdTxWireLen. */
constexpr size_t hdMarkSlot(size_t body, uint64_t lpn)
{
    const size_t wire = hdTxWireLen(body);
    const size_t first = alignUp8(body);
    const size_t nslots = (wire - first) / 8;
    return first + 8 * (lpn % nslots);
}

/** Smallest possible op-log record across formats (empty HD record). */
constexpr size_t kMinOpLogWire = sizeof(OpLogHeaderC);

/** Smallest possible transaction across formats (empty ZB tx). */
constexpr size_t kMinTxWire = zbWireLen(sizeof(TxHeader));
static_assert(kMinTxWire >= sizeof(TxHeader));

/** Format implied by a transaction magic word, nullopt if unknown. */
constexpr std::optional<LogFormatKind> txMagicKind(uint32_t magic)
{
    switch (magic) {
      case kTxMagic: return LogFormatKind::Classic;
      case kTxMagicHd: return LogFormatKind::HeaderDancing;
      case kTxMagicZb: return LogFormatKind::ZeroBased;
      default: return std::nullopt;
    }
}

/** Format implied by an op-log magic word, nullopt if unknown. */
constexpr std::optional<LogFormatKind> opMagicKind(uint32_t magic)
{
    switch (magic) {
      case kOpMagic: return LogFormatKind::Classic;
      case kOpMagicHd: return LogFormatKind::HeaderDancing;
      case kOpMagicZb: return LogFormatKind::ZeroBased;
      default: return std::nullopt;
    }
}

/**
 * Full wire length implied by a transaction header (which is readable
 * raw in every format — the first presence byte of a zero-based record
 * sits past the 40 B header). Returns 0 for an unknown magic. The
 * header may be torn, so callers must still bounds-check and parse.
 */
constexpr uint64_t txWireLen(const TxHeader &hdr)
{
    const uint64_t body =
        sizeof(TxHeader) + static_cast<uint64_t>(hdr.payload_len);
    switch (hdr.magic) {
      case kTxMagic: return body + sizeof(TxFooter);
      case kTxMagicHd: return hdTxWireLen(body);
      case kTxMagicZb: return zbWireLen(body);
      default: return 0;
    }
}

/** Serializes one transaction's memory logs into its NVM byte format. */
class TxBuilder
{
  public:
    explicit TxBuilder(LogFormatKind fmt = LogFormatKind::Classic)
        : fmt_(fmt)
    {
        reset(0, 0, 0);
    }

    /** Start a fresh transaction. */
    void reset(uint64_t lpn, uint64_t ds_id, uint64_t covered_opn);

    /** Append one inline memory log ({address, value} pair). */
    void addInline(RemotePtr addr, const void *value, uint32_t len);

    /**
     * Append an op-ref memory log whose value bytes live in the already
     * persisted operation log at ring offset @p oplog_off (+ byte offset
     * @p val_off inside that record's value). Shrinks the transaction by
     * not duplicating data the op log already persisted (Section 4.3).
     */
    void addOpRef(RemotePtr addr, uint64_t oplog_off, uint32_t val_off,
                  uint32_t len);

    uint32_t numEntries() const { return entries_; }
    LogFormatKind format() const { return fmt_; }

    /** Finish: seal the record per its format; returns the byte string. */
    std::span<const uint8_t> finish();

    /**
     * Size the finished transaction will occupy (exact in both states:
     * the predicted wire size before finish(), the actual one after).
     */
    size_t finishedSize() const
    {
        if (finished_)
            return buf_.size();
        switch (fmt_) {
          case LogFormatKind::HeaderDancing:
            return hdTxWireLen(buf_.size());
          case LogFormatKind::ZeroBased:
            return zbWireLen(buf_.size());
          case LogFormatKind::Classic:
          default:
            return buf_.size() + sizeof(TxFooter);
        }
    }

  private:
    std::vector<uint8_t> buf_;
    uint32_t entries_ = 0;
    bool finished_ = false;
    LogFormatKind fmt_ = LogFormatKind::Classic;
};

/** Parsed view of one memory-log entry. */
struct ParsedMemLog
{
    MemLogFlag flag;
    RemotePtr addr;
    uint32_t len;
    const uint8_t *inline_value; //!< valid when flag == kInline
    uint64_t oplog_off;          //!< valid when flag == kOpRef
    uint32_t val_off;            //!< valid when flag == kOpRef
};

/**
 * Validates and iterates a serialized transaction of any format (the
 * encoding is sniffed from the magic word).
 */
class TxParser
{
  public:
    /**
     * Parse @p bytes. Returns std::nullopt if the buffer is torn
     * (bad magic, truncated, missing commit mark, checksum or presence
     * mismatch, or a malformed entry stream).
     */
    static std::optional<TxParser> parse(std::span<const uint8_t> bytes);

    const TxHeader &header() const { return hdr_; }
    const std::vector<ParsedMemLog> &entries() const { return entries_; }
    LogFormatKind format() const { return fmt_; }

  private:
    TxHeader hdr_{};
    std::vector<ParsedMemLog> entries_;
    LogFormatKind fmt_ = LogFormatKind::Classic;
    /** Zero-based records are de-stuffed here; entries_ alias it (the
     *  heap block is stable across the move out of parse()). */
    std::vector<uint8_t> destuffed_;
};

/** Serialize one operation-log record in the given format. */
std::vector<uint8_t> encodeOpLog(LogFormatKind fmt, OpType op,
                                 uint64_t ds_id, uint64_t opn, Key key,
                                 const void *value, uint32_t val_len);

/** Classic-format convenience overload (the historical signature). */
std::vector<uint8_t> encodeOpLog(OpType op, uint64_t ds_id, uint64_t opn,
                                 Key key, const void *value,
                                 uint32_t val_len);

/** Parsed operation-log record. */
struct ParsedOpLog
{
    OpType op;
    uint64_t ds_id;
    uint64_t opn;
    Key key;
    std::vector<uint8_t> value;
    size_t wire_len; //!< bytes the record occupies in the ring
};

/**
 * Decode an op-log record of any format at the start of @p bytes.
 * Returns std::nullopt on bad magic / truncation / validity-check
 * mismatch / out-of-range OpType.
 */
std::optional<ParsedOpLog> decodeOpLog(std::span<const uint8_t> bytes);

/**
 * Wire length of the op-log record whose first bytes are @p head, in any
 * format (every op-log header is readable raw). Returns std::nullopt on
 * an unknown magic or when @p head is shorter than that format's header.
 * Lets a ring scan size its read before decoding; the header may be
 * torn, so callers must still bounds-check and decode.
 */
std::optional<size_t> opLogWireLen(std::span<const uint8_t> head);

/**
 * Copy @p len value bytes starting at value offset @p val_off out of
 * the raw op-log record bytes @p rec (which begin at the record's
 * header; the format is sniffed). Used by the back-end replayer to
 * dereference op-ref entries without decoding the whole record.
 * Returns false when @p rec is too short for the requested slice.
 */
bool extractOpLogValue(std::span<const uint8_t> rec, uint32_t val_off,
                       uint32_t len, uint8_t *out);

/** Raw record bytes extractOpLogValue may need for a slice, across all
 *  formats (callers clamp to the ring's contiguous remainder). */
constexpr size_t opLogValueSpanBytes(uint32_t val_off, uint32_t len)
{
    const size_t logical_end =
        sizeof(OpLogHeaderC) + static_cast<size_t>(val_off) + len;
    const size_t zb_end = zbRawPos(logical_end) + 1;
    const size_t classic_end =
        sizeof(OpLogHeader) + static_cast<size_t>(val_off) + len;
    return std::max({zb_end, classic_end, sizeof(OpLogHeader)});
}

} // namespace asymnvm

#endif // ASYMNVM_BACKEND_LOG_FORMAT_H_
