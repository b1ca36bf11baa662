#include "backend/log_format.h"

#include <cassert>

namespace asymnvm {

namespace {

template <typename T>
void
appendPod(std::vector<uint8_t> &buf, const T &v)
{
    const auto *p = reinterpret_cast<const uint8_t *>(&v);
    buf.insert(buf.end(), p, p + sizeof(T));
}

/** Interleave presence bytes into @p logical (zero-based encoding):
 *  one at every raw offset ≡ 63 (mod 64) plus the terminal byte. */
std::vector<uint8_t>
zbStuff(std::span<const uint8_t> logical, uint8_t seed)
{
    std::vector<uint8_t> out;
    out.reserve(zbWireLen(logical.size()));
    for (const uint8_t byte : logical) {
        if ((out.size() & 63) == 63)
            out.push_back(zbPresenceByte(seed, out.size()));
        out.push_back(byte);
    }
    out.push_back(zbPresenceByte(seed, out.size()));
    return out;
}

/**
 * Validate every presence byte (including the terminal one) of a
 * zero-based record and recover its @p logical_len logical bytes into
 * @p out. Any mismatch — in particular a still-zero byte where the ring
 * was never overwritten — means the record tore.
 */
bool
zbDestuff(std::span<const uint8_t> raw, size_t logical_len, uint8_t seed,
          std::vector<uint8_t> *out)
{
    const size_t raw_len = zbRawLen(logical_len);
    if (raw.size() < raw_len + 1)
        return false;
    out->clear();
    out->reserve(logical_len);
    for (size_t pos = 0; pos < raw_len; ++pos) {
        if ((pos & 63) == 63) {
            if (raw[pos] != zbPresenceByte(seed, pos))
                return false;
        } else {
            out->push_back(raw[pos]);
        }
    }
    if (raw[raw_len] != zbPresenceByte(seed, raw_len))
        return false;
    return out->size() == logical_len;
}

/**
 * Walk the entry stream of a transaction body (all formats share the
 * entry layout). Bounds checks compare against the remaining byte
 * count, never `p + len` — a torn/corrupt eh.len near UINT32_MAX would
 * overflow the pointer arithmetic (UB) and could wrap past `end`.
 * Unknown flag bytes are corruption, not implicit op-refs.
 */
bool
walkEntries(const uint8_t *p, const uint8_t *end, uint32_t num_entries,
            std::vector<ParsedMemLog> *out)
{
    for (uint32_t i = 0; i < num_entries; ++i) {
        if (static_cast<size_t>(end - p) < sizeof(MemLogEntryHeader))
            return false;
        MemLogEntryHeader eh;
        std::memcpy(&eh, p, sizeof(eh));
        p += sizeof(eh);
        if (eh.flag > static_cast<uint8_t>(MemLogFlag::kOpRef))
            return false;
        ParsedMemLog m{};
        m.flag = static_cast<MemLogFlag>(eh.flag);
        m.addr = RemotePtr::fromRaw(eh.addr_raw);
        m.len = eh.len;
        if (m.flag == MemLogFlag::kInline) {
            if (static_cast<size_t>(end - p) < eh.len)
                return false;
            m.inline_value = p;
            p += eh.len;
        } else {
            if (static_cast<size_t>(end - p) < 16)
                return false;
            std::memcpy(&m.oplog_off, p, 8);
            std::memcpy(&m.val_off, p + 8, 4);
            p += 16;
        }
        out->push_back(m);
    }
    return p == end;
}

} // namespace

const char *
logFormatName(LogFormatKind fmt)
{
    switch (fmt) {
      case LogFormatKind::Classic: return "classic";
      case LogFormatKind::HeaderDancing: return "header-dancing";
      case LogFormatKind::ZeroBased: return "zero-based";
    }
    return "?";
}

void
TxBuilder::reset(uint64_t lpn, uint64_t ds_id, uint64_t covered_opn)
{
    buf_.clear();
    entries_ = 0;
    finished_ = false;
    TxHeader hdr{};
    switch (fmt_) {
      case LogFormatKind::HeaderDancing: hdr.magic = kTxMagicHd; break;
      case LogFormatKind::ZeroBased: hdr.magic = kTxMagicZb; break;
      case LogFormatKind::Classic:
      default: hdr.magic = kTxMagic; break;
    }
    hdr.lpn = lpn;
    hdr.ds_id = ds_id;
    hdr.covered_opn = covered_opn;
    appendPod(buf_, hdr);
}

void
TxBuilder::addInline(RemotePtr addr, const void *value, uint32_t len)
{
    assert(!finished_);
    MemLogEntryHeader eh{};
    eh.flag = static_cast<uint8_t>(MemLogFlag::kInline);
    eh.len = len;
    eh.addr_raw = addr.raw();
    appendPod(buf_, eh);
    const auto *p = static_cast<const uint8_t *>(value);
    buf_.insert(buf_.end(), p, p + len);
    ++entries_;
}

void
TxBuilder::addOpRef(RemotePtr addr, uint64_t oplog_off, uint32_t val_off,
                    uint32_t len)
{
    assert(!finished_);
    MemLogEntryHeader eh{};
    eh.flag = static_cast<uint8_t>(MemLogFlag::kOpRef);
    eh.len = len;
    eh.addr_raw = addr.raw();
    appendPod(buf_, eh);
    appendPod(buf_, oplog_off);
    appendPod(buf_, val_off);
    uint32_t pad = 0;
    appendPod(buf_, pad);
    ++entries_;
}

std::span<const uint8_t>
TxBuilder::finish()
{
    assert(!finished_);
    auto *hdr = reinterpret_cast<TxHeader *>(buf_.data());
    hdr->num_entries = entries_;
    hdr->payload_len = static_cast<uint32_t>(buf_.size() - sizeof(TxHeader));
    switch (fmt_) {
      case LogFormatKind::HeaderDancing: {
        const size_t body = buf_.size();
        const uint64_t lpn = hdr->lpn;
        const uint32_t crc = crc32c(buf_.data(), body);
        buf_.resize(hdTxWireLen(body), 0); // hdr pointer now invalid
        TxFooter mark{};
        mark.commit_flag = kTxCommitHd;
        mark.checksum = crc;
        std::memcpy(buf_.data() + hdMarkSlot(body, lpn), &mark,
                    sizeof(mark));
        break;
      }
      case LogFormatKind::ZeroBased: {
        const uint8_t seed = zbSeed(hdr->lpn, hdr->ds_id);
        buf_ = zbStuff(buf_, seed);
        break;
      }
      case LogFormatKind::Classic:
      default: {
        TxFooter foot{};
        foot.commit_flag = kTxCommit;
        foot.checksum = crc32c(buf_.data(), buf_.size());
        appendPod(buf_, foot);
        break;
      }
    }
    finished_ = true;
    return {buf_.data(), buf_.size()};
}

std::optional<TxParser>
TxParser::parse(std::span<const uint8_t> bytes)
{
    if (bytes.size() < sizeof(TxHeader))
        return std::nullopt;
    TxParser tp;
    std::memcpy(&tp.hdr_, bytes.data(), sizeof(TxHeader));
    const std::optional<LogFormatKind> kind = txMagicKind(tp.hdr_.magic);
    if (!kind)
        return std::nullopt;
    tp.fmt_ = *kind;
    // 64-bit arithmetic: payload_len may be torn garbage near UINT32_MAX.
    const uint64_t body =
        sizeof(TxHeader) + static_cast<uint64_t>(tp.hdr_.payload_len);

    switch (tp.fmt_) {
      case LogFormatKind::Classic: {
        if (bytes.size() < body + sizeof(TxFooter))
            return std::nullopt;
        TxFooter foot;
        std::memcpy(&foot, bytes.data() + body, sizeof(TxFooter));
        if (foot.commit_flag != kTxCommit)
            return std::nullopt;
        if (foot.checksum != crc32c(bytes.data(), body))
            return std::nullopt;
        if (!walkEntries(bytes.data() + sizeof(TxHeader),
                         bytes.data() + body, tp.hdr_.num_entries,
                         &tp.entries_))
            return std::nullopt;
        break;
      }
      case LogFormatKind::HeaderDancing: {
        const uint64_t wire = hdTxWireLen(body);
        if (bytes.size() < wire)
            return std::nullopt;
        // The commit mark dances with the LPN through the 8 B slots of
        // the tail padding; its position is fully determined by header
        // fields, which the CRC then vouches for.
        TxFooter mark;
        std::memcpy(&mark, bytes.data() + hdMarkSlot(body, tp.hdr_.lpn),
                    sizeof(mark));
        if (mark.commit_flag != kTxCommitHd)
            return std::nullopt;
        if (mark.checksum != crc32c(bytes.data(), body))
            return std::nullopt;
        if (!walkEntries(bytes.data() + sizeof(TxHeader),
                         bytes.data() + body, tp.hdr_.num_entries,
                         &tp.entries_))
            return std::nullopt;
        break;
      }
      case LogFormatKind::ZeroBased: {
        const uint64_t wire = zbWireLen(body);
        if (bytes.size() < wire)
            return std::nullopt;
        const uint8_t seed = zbSeed(tp.hdr_.lpn, tp.hdr_.ds_id);
        if (!zbDestuff(bytes.first(wire), body, seed, &tp.destuffed_))
            return std::nullopt;
        if (!walkEntries(tp.destuffed_.data() + sizeof(TxHeader),
                         tp.destuffed_.data() + body, tp.hdr_.num_entries,
                         &tp.entries_))
            return std::nullopt;
        break;
      }
    }
    return tp;
}

std::vector<uint8_t>
encodeOpLog(LogFormatKind fmt, OpType op, uint64_t ds_id, uint64_t opn,
            Key key, const void *value, uint32_t val_len)
{
    // The compact header narrows ds_id to 16 bits; fall back to the
    // classic self-checksummed layout in the (never expected) overflow
    // case rather than truncating.
    if (fmt == LogFormatKind::Classic || ds_id > 0xffff)
        return encodeOpLog(op, ds_id, opn, key, value, val_len);

    OpLogHeaderC hdr{};
    hdr.op = static_cast<uint8_t>(op);
    hdr.ds_id = static_cast<uint16_t>(ds_id);
    hdr.val_len = val_len;
    hdr.opn = opn;
    hdr.key = key;

    if (fmt == LogFormatKind::HeaderDancing) {
        // check doubles as the commit mark: CRC over the header (with
        // check = 0) continued over the value bytes. The whole record
        // ships in one store; no trailing CRC word, no footer.
        hdr.magic = kOpMagicHd;
        uint32_t crc = crc32c(&hdr, sizeof(hdr));
        if (val_len > 0)
            crc = crc32c(value, val_len, crc);
        hdr.check = crc;
        std::vector<uint8_t> buf;
        buf.reserve(sizeof(hdr) + val_len);
        appendPod(buf, hdr);
        if (val_len > 0) {
            const auto *p = static_cast<const uint8_t *>(value);
            buf.insert(buf.end(), p, p + val_len);
        }
        return buf;
    }

    // Zero-based: validity lives in the presence bytes, check stays 0.
    hdr.magic = kOpMagicZb;
    std::vector<uint8_t> logical;
    logical.reserve(sizeof(hdr) + val_len);
    appendPod(logical, hdr);
    if (val_len > 0) {
        const auto *p = static_cast<const uint8_t *>(value);
        logical.insert(logical.end(), p, p + val_len);
    }
    return zbStuff(logical, zbSeed(opn, key));
}

std::vector<uint8_t>
encodeOpLog(OpType op, uint64_t ds_id, uint64_t opn, Key key,
            const void *value, uint32_t val_len)
{
    std::vector<uint8_t> buf;
    OpLogHeader hdr{};
    hdr.magic = kOpMagic;
    hdr.op = static_cast<uint8_t>(op);
    hdr.ds_id = ds_id;
    hdr.opn = opn;
    hdr.key = key;
    hdr.val_len = val_len;
    appendPod(buf, hdr);
    if (val_len > 0) {
        const auto *p = static_cast<const uint8_t *>(value);
        buf.insert(buf.end(), p, p + val_len);
    }
    const uint32_t crc = crc32c(buf.data(), buf.size());
    appendPod(buf, crc);
    return buf;
}

std::optional<size_t>
opLogWireLen(std::span<const uint8_t> head)
{
    if (head.size() < sizeof(uint32_t))
        return std::nullopt;
    uint32_t magic;
    std::memcpy(&magic, head.data(), sizeof(magic));
    const std::optional<LogFormatKind> kind = opMagicKind(magic);
    if (!kind)
        return std::nullopt;
    if (*kind == LogFormatKind::Classic) {
        if (head.size() < sizeof(OpLogHeader))
            return std::nullopt;
        OpLogHeader hdr;
        std::memcpy(&hdr, head.data(), sizeof(hdr));
        return sizeof(OpLogHeader) + static_cast<size_t>(hdr.val_len) +
               sizeof(uint32_t);
    }
    if (head.size() < sizeof(OpLogHeaderC))
        return std::nullopt;
    OpLogHeaderC hdr;
    std::memcpy(&hdr, head.data(), sizeof(hdr));
    const size_t logical =
        sizeof(OpLogHeaderC) + static_cast<size_t>(hdr.val_len);
    return *kind == LogFormatKind::HeaderDancing ? logical
                                                 : zbWireLen(logical);
}

std::optional<ParsedOpLog>
decodeOpLog(std::span<const uint8_t> bytes)
{
    const std::optional<size_t> wire = opLogWireLen(bytes);
    if (!wire.has_value() || bytes.size() < *wire)
        return std::nullopt;
    uint32_t magic;
    std::memcpy(&magic, bytes.data(), sizeof(magic));
    const LogFormatKind kind = *opMagicKind(magic);

    if (kind == LogFormatKind::Classic) {
        OpLogHeader hdr;
        std::memcpy(&hdr, bytes.data(), sizeof(hdr));
        if (hdr.op > kMaxOpTypeByte)
            return std::nullopt;
        const size_t body = *wire - sizeof(uint32_t);
        uint32_t crc;
        std::memcpy(&crc, bytes.data() + body, sizeof(crc));
        if (crc != crc32c(bytes.data(), body))
            return std::nullopt;
        ParsedOpLog out;
        out.op = static_cast<OpType>(hdr.op);
        out.ds_id = hdr.ds_id;
        out.opn = hdr.opn;
        out.key = hdr.key;
        out.value.assign(bytes.begin() + sizeof(OpLogHeader),
                         bytes.begin() + body);
        out.wire_len = *wire;
        return out;
    }

    // Compact header (the zero-based header is raw-readable: the first
    // presence byte sits at raw offset 63, past the 32 B header).
    OpLogHeaderC hdr;
    std::memcpy(&hdr, bytes.data(), sizeof(hdr));
    if (hdr.op > kMaxOpTypeByte)
        return std::nullopt;
    ParsedOpLog out;
    out.op = static_cast<OpType>(hdr.op);
    out.ds_id = hdr.ds_id;
    out.opn = hdr.opn;
    out.key = hdr.key;
    out.wire_len = *wire;

    if (kind == LogFormatKind::HeaderDancing) {
        const uint32_t saved = hdr.check;
        hdr.check = 0;
        uint32_t crc = crc32c(&hdr, sizeof(hdr));
        if (hdr.val_len > 0)
            crc = crc32c(bytes.data() + sizeof(hdr), hdr.val_len, crc);
        if (crc != saved)
            return std::nullopt;
        out.value.assign(bytes.begin() + sizeof(OpLogHeaderC),
                         bytes.begin() + *wire);
        return out;
    }

    const uint64_t logical =
        sizeof(OpLogHeaderC) + static_cast<uint64_t>(hdr.val_len);
    std::vector<uint8_t> destuffed;
    if (!zbDestuff(bytes.first(*wire), logical, zbSeed(hdr.opn, hdr.key),
                   &destuffed))
        return std::nullopt;
    out.value.assign(destuffed.begin() + sizeof(OpLogHeaderC),
                     destuffed.end());
    return out;
}

bool
extractOpLogValue(std::span<const uint8_t> rec, uint32_t val_off,
                  uint32_t len, uint8_t *out)
{
    if (rec.size() < sizeof(uint32_t))
        return false;
    uint32_t magic;
    std::memcpy(&magic, rec.data(), sizeof(magic));
    const std::optional<LogFormatKind> kind = opMagicKind(magic);
    if (!kind)
        return false;
    switch (*kind) {
      case LogFormatKind::Classic: {
        const size_t start = sizeof(OpLogHeader) + static_cast<size_t>(val_off);
        if (rec.size() < start + len)
            return false;
        std::memcpy(out, rec.data() + start, len);
        return true;
      }
      case LogFormatKind::HeaderDancing: {
        const size_t start =
            sizeof(OpLogHeaderC) + static_cast<size_t>(val_off);
        if (rec.size() < start + len)
            return false;
        std::memcpy(out, rec.data() + start, len);
        return true;
      }
      case LogFormatKind::ZeroBased: {
        const size_t first = sizeof(OpLogHeaderC) + static_cast<size_t>(val_off);
        for (uint32_t j = 0; j < len; ++j) {
            const size_t raw = zbRawPos(first + j);
            if (raw >= rec.size())
                return false;
            out[j] = rec[raw];
        }
        return true;
      }
    }
    return false;
}

} // namespace asymnvm
