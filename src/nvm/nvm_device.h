#ifndef ASYMNVM_NVM_NVM_DEVICE_H_
#define ASYMNVM_NVM_NVM_DEVICE_H_

/**
 * @file
 * Byte-addressable NVM device emulation.
 *
 * Substitutes for the Intel Optane DC PMM modules of the paper's back-end
 * (Section 9.1). The emulation preserves the property the framework's
 * crash-consistency machinery actually depends on: *which bytes survive a
 * crash*. Writes are staged in a durability journal until persist() is
 * called; crash() rolls back everything still volatile, and crashPartial()
 * keeps only a prefix of the staged writes — modeling a power failure in
 * the middle of a sequence of media writes (e.g. a torn RDMA_Write that
 * only the transaction checksum can detect, Section 4.2).
 *
 * The device itself charges no virtual time; callers (the verbs layer, the
 * back-end CPU model) account latency so that local and remote access can
 * be priced differently.
 *
 * Host cost follows the bytes written, not the capacity: the image is an
 * anonymous mapping, so construction touches no page and an untouched
 * page reads as zeros; a per-page bitmap records which pages may hold
 * non-zero bytes, which lets syncFrom() skip pages both images leave
 * untouched. The undo journal is one byte arena that keeps its capacity
 * across persist().
 */

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <vector>

namespace asymnvm {

/** One NVM DIMM set attached to a back-end (or mirror) node. */
class NvmDevice
{
  public:
    /** @param size Capacity in bytes. */
    explicit NvmDevice(uint64_t size);
    ~NvmDevice();

    NvmDevice(const NvmDevice &) = delete;
    NvmDevice &operator=(const NvmDevice &) = delete;

    uint64_t size() const { return size_; }

    /** Read @p len bytes at @p off into @p dst (sees staged writes). */
    void read(uint64_t off, void *dst, size_t len) const;

    /** Stage a write of @p len bytes; durable only after persist(). */
    void write(uint64_t off, const void *src, size_t len);

    /** Atomic 8-byte read (RDMA guarantees 64-bit atomicity, §3.3). */
    uint64_t read64(uint64_t off) const;

    /** Atomic 8-byte write, immediately durable (RDMA atomic verb). */
    void write64Atomic(uint64_t off, uint64_t v);

    /**
     * Atomic compare-and-swap on an 8-byte word; immediately durable.
     * @return The previous value (equals @p expected on success).
     */
    uint64_t compareAndSwap64(uint64_t off, uint64_t expected,
                              uint64_t desired);

    /** Atomic fetch-and-add on an 8-byte word; immediately durable. */
    uint64_t fetchAdd64(uint64_t off, uint64_t delta);

    /** Make all staged writes durable (persist barrier / DMA complete). */
    void persist();

    /** Number of writes staged since the last persist(). */
    size_t pendingWrites() const;

    /**
     * Simulate a power failure: every staged (non-durable) write is rolled
     * back, restoring the last persisted image.
     */
    void crash();

    /**
     * Simulate a power failure where only the first @p keep_writes staged
     * writes reached the media; the rest are rolled back.
     */
    void crashPartial(size_t keep_writes);

    /**
     * crashPartial at single-write granularity: stage a write of @p len
     * bytes as the DMA would, then lose power so that only the first
     * @p keep_bytes survive durably — the tail rolls back to the previous
     * image. Used by the verbs layer to model a torn in-flight RDMA_Write
     * (Section 4.2). Byte-granular so crash sweeps can enumerate every
     * 64-byte tear prefix deterministically.
     */
    void applyTornWrite(uint64_t off, const void *src, size_t len,
                        size_t keep_bytes);

    /**
     * Make this device a durable byte-for-byte copy of @p src, another
     * device of the same size: the full-image transfer of a mirror
     * attach. Only the 4 KiB pages whose contents differ are copied,
     * under @p src's shared lock and this device's exclusive lock. Staged
     * writes become durable and the journal ends empty; bytesWritten()
     * grows by the full image size, as for a whole-image write.
     */
    void syncFrom(const NvmDevice &src);

    /** Total bytes written over the device's lifetime (wear statistics). */
    uint64_t bytesWritten() const { return bytes_written_; }

  private:
    static constexpr uint64_t kPageSize = 4096;

    /** One staged write: its pre-image lives at undo_[at, at + len). */
    struct Pending
    {
        uint64_t off;
        uint64_t len;
        uint64_t at;
    };

    /** Mark every page in [off, off + len) touched. */
    void touch(uint64_t off, size_t len);

    uint8_t *mem_;
    uint64_t size_;
    std::vector<bool> touched_; //!< per page: may hold non-zero bytes
    std::vector<uint8_t> undo_;     //!< pre-images of the staged writes
    std::vector<Pending> pending_;
    uint64_t bytes_written_ = 0;
    mutable std::shared_mutex mu_;
};

} // namespace asymnvm

#endif // ASYMNVM_NVM_NVM_DEVICE_H_
