#include "nvm/nvm_device.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

namespace asymnvm {

namespace {

bool
allZero(const uint8_t *p, size_t len)
{
    return p[0] == 0 && std::memcmp(p, p + 1, len - 1) == 0;
}

} // namespace

NvmDevice::NvmDevice(uint64_t size)
    : size_(size), touched_((size + kPageSize - 1) / kPageSize)
{
    if (size < 4096)
        throw std::invalid_argument("NvmDevice: size too small");
    // Anonymous pages are zero on first touch and cost nothing until then.
    void *p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    mem_ = static_cast<uint8_t *>(p);
}

NvmDevice::~NvmDevice()
{
    munmap(mem_, size_);
}

void
NvmDevice::touch(uint64_t off, size_t len)
{
    if (len == 0)
        return;
    for (uint64_t page = off / kPageSize; page <= (off + len - 1) / kPageSize;
         ++page)
        touched_[page] = true;
}

void
NvmDevice::read(uint64_t off, void *dst, size_t len) const
{
    std::shared_lock lock(mu_);
    assert(off + len <= size_);
    std::memcpy(dst, mem_ + off, len);
}

void
NvmDevice::write(uint64_t off, const void *src, size_t len)
{
    std::unique_lock lock(mu_);
    assert(off + len <= size_);
    pending_.push_back({off, len, undo_.size()});
    undo_.insert(undo_.end(), mem_ + off, mem_ + off + len);
    touch(off, len);
    std::memcpy(mem_ + off, src, len);
    bytes_written_ += len;
}

uint64_t
NvmDevice::read64(uint64_t off) const
{
    uint64_t v;
    read(off, &v, sizeof(v));
    return v;
}

void
NvmDevice::write64Atomic(uint64_t off, uint64_t v)
{
    std::unique_lock lock(mu_);
    assert(off + sizeof(v) <= size_);
    touch(off, sizeof(v));
    std::memcpy(mem_ + off, &v, sizeof(v));
    bytes_written_ += sizeof(v);
    // Atomic verbs are immediately durable; no journal entry.
}

uint64_t
NvmDevice::compareAndSwap64(uint64_t off, uint64_t expected,
                            uint64_t desired)
{
    std::unique_lock lock(mu_);
    assert(off + 8 <= size_);
    uint64_t cur;
    std::memcpy(&cur, mem_ + off, 8);
    if (cur == expected) {
        touch(off, 8);
        std::memcpy(mem_ + off, &desired, 8);
        bytes_written_ += 8;
    }
    return cur;
}

uint64_t
NvmDevice::fetchAdd64(uint64_t off, uint64_t delta)
{
    std::unique_lock lock(mu_);
    assert(off + 8 <= size_);
    uint64_t cur;
    std::memcpy(&cur, mem_ + off, 8);
    const uint64_t next = cur + delta;
    touch(off, 8);
    std::memcpy(mem_ + off, &next, 8);
    bytes_written_ += 8;
    return cur;
}

void
NvmDevice::persist()
{
    std::unique_lock lock(mu_);
    pending_.clear();
    undo_.clear();
}

size_t
NvmDevice::pendingWrites() const
{
    std::shared_lock lock(mu_);
    return pending_.size();
}

void
NvmDevice::crash()
{
    crashPartial(0);
}

void
NvmDevice::crashPartial(size_t keep_writes)
{
    std::unique_lock lock(mu_);
    // Roll back in reverse order so overlapping writes restore correctly.
    for (size_t i = pending_.size(); i > keep_writes; --i) {
        const Pending &p = pending_[i - 1];
        std::memcpy(mem_ + p.off, undo_.data() + p.at, p.len);
    }
    // The surviving prefix is now durable.
    pending_.clear();
    undo_.clear();
}

void
NvmDevice::applyTornWrite(uint64_t off, const void *src, size_t len,
                          size_t keep_bytes)
{
    std::unique_lock lock(mu_);
    assert(off + len <= size_);
    keep_bytes = std::min(keep_bytes, len);
    // The in-flight DMA transfers all len bytes, then power fails
    // mid-transfer: the tail beyond keep_bytes rolls back to the previous
    // image, so only the prefix lands — immediately durable (no journal
    // entry remains, so a later crash() cannot undo it).
    touch(off, keep_bytes);
    std::memcpy(mem_ + off, src, keep_bytes);
    bytes_written_ += len;
}

void
NvmDevice::syncFrom(const NvmDevice &src)
{
    assert(&src != this);
    std::shared_lock src_lock(src.mu_, std::defer_lock);
    std::unique_lock lock(mu_, std::defer_lock);
    std::lock(src_lock, lock);
    if (src.size_ != size_)
        throw std::invalid_argument("NvmDevice::syncFrom: size mismatch");
    for (uint64_t page = 0; page < touched_.size(); ++page) {
        const bool src_touched = src.touched_[page];
        const bool dst_touched = touched_[page];
        if (!src_touched && !dst_touched)
            continue; // zero in both images
        const uint64_t off = page * kPageSize;
        const size_t len = std::min(kPageSize, size_ - off);
        uint8_t *dst = mem_ + off;
        if (!src_touched) {
            if (!allZero(dst, len))
                std::memset(dst, 0, len);
            continue;
        }
        const uint8_t *from = src.mem_ + off;
        const bool differs = dst_touched ? std::memcmp(dst, from, len) != 0
                                         : !allZero(from, len);
        if (differs) {
            touched_[page] = true;
            std::memcpy(dst, from, len);
        }
    }
    pending_.clear();
    undo_.clear();
    bytes_written_ += size_;
}

} // namespace asymnvm
