#include "backend/layout.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "nvm/nvm_device.h"

namespace asymnvm {

namespace {

constexpr uint64_t
alignUp(uint64_t v, uint64_t a)
{
    return (v + a - 1) / a * a;
}

} // namespace

std::span<const uint8_t>
LogRing::pad(uint64_t head) const
{
    static constexpr uint8_t kZeros[sizeof(kSkipMagic)] = {};
    if (contiguous(head) < sizeof(kSkipMagic))
        return {kZeros, contiguous(head)};
    return {reinterpret_cast<const uint8_t *>(&kSkipMagic),
            sizeof(kSkipMagic)};
}

uint64_t
LogRing::recordStart(const NvmDevice &dev, uint64_t pos) const
{
    if (contiguous(pos) >= min_record) {
        uint32_t word = 0;
        dev.read(abs(pos), &word, sizeof(word));
        if (word != kSkipMagic)
            return pos;
    }
    return nextLap(pos);
}

std::optional<ParsedOpLog>
LogRing::readOpLog(const NvmDevice &dev, uint64_t pos) const
{
    const uint64_t room = contiguous(pos);
    uint8_t head[std::max(sizeof(OpLogHeader), sizeof(OpLogHeaderC))];
    const size_t head_len = std::min<uint64_t>(room, sizeof(head));
    dev.read(abs(pos), head, head_len);
    const std::optional<size_t> wire = opLogWireLen({head, head_len});
    if (!wire.has_value() || *wire > room)
        return std::nullopt;
    std::vector<uint8_t> buf(*wire);
    dev.read(abs(pos), buf.data(), buf.size());
    return decodeOpLog({buf.data(), buf.size()});
}

Layout
Layout::compute(const BackendConfig &cfg)
{
    Layout lay;
    SuperBlock &sb = lay.super;
    sb.magic = kSuperMagic;
    sb.layout_version = 1;
    sb.max_frontends = cfg.max_frontends;
    sb.max_names = cfg.max_names;
    sb.memlog_ring_size = cfg.memlog_ring_size;
    sb.oplog_ring_size = cfg.oplog_ring_size;
    sb.rpc_ring_size = cfg.rpc_ring_size;
    sb.block_size = cfg.block_size;
    sb.epoch = 0;

    uint64_t off = alignUp(sizeof(SuperBlock), 256);
    sb.naming_off = off;
    off += static_cast<uint64_t>(cfg.max_names) * sizeof(NamingEntry);
    off = alignUp(off, 256);

    sb.felog_off = off;
    sb.felog_stride = alignUp(sizeof(LogControl) + cfg.memlog_ring_size +
                                  cfg.oplog_ring_size +
                                  2 * cfg.rpc_ring_size,
                              256);
    off += static_cast<uint64_t>(cfg.max_frontends) * sb.felog_stride;
    off = alignUp(off, 256);

    // The bitmap covers the data area; solve for the block count that
    // makes bitmap + data fit in the remaining space.
    if (off + 4096 >= cfg.nvm_size)
        throw std::invalid_argument("Layout: device too small for metadata");
    const uint64_t remaining = cfg.nvm_size - off;
    // blocks * block_size + blocks/8 <= remaining  (plus alignment slack)
    uint64_t blocks = remaining / (cfg.block_size + 1);
    while (true) {
        const uint64_t bitmap_bytes = alignUp((blocks + 7) / 8, 256);
        const uint64_t data_off = alignUp(off + bitmap_bytes, 256);
        if (data_off + blocks * cfg.block_size <= cfg.nvm_size) {
            sb.bitmap_off = off;
            sb.bitmap_bytes = bitmap_bytes;
            sb.data_off = data_off;
            sb.data_blocks = blocks;
            break;
        }
        if (blocks == 0)
            throw std::invalid_argument("Layout: no room for data area");
        --blocks;
    }
    if (sb.data_blocks < 8)
        throw std::invalid_argument("Layout: data area too small");
    return lay;
}

} // namespace asymnvm
