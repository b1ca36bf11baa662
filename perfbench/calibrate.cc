#include "calibrate.h"

#include <cstring>

#include "trace.h"

namespace perfbench {

namespace {

constexpr size_t kBufBytes = 8u << 20;
constexpr size_t kCopyBytes = 128;
constexpr int kSliceRounds = 128;

uint64_t
xorshift(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

} // namespace

Calibrator::Calibrator() : buf_(kBufBytes)
{
    for (size_t i = 0; i < buf_.size(); ++i)
        buf_[i] = static_cast<char>(i * 131);
    index_.reserve(1u << 15);
}

int64_t
Calibrator::slice()
{
    const int64_t h0 = hostNs();
    char tmp[kCopyBytes];
    const size_t slots = kBufBytes / kCopyBytes;
    for (int i = 0; i < kSliceRounds; ++i) {
        const size_t from = (xorshift(x_) % slots) * kCopyBytes;
        const size_t to = (xorshift(x_) % slots) * kCopyBytes;
        std::memcpy(tmp, buf_.data() + from, kCopyBytes);
        tmp[i % kCopyBytes] ^= static_cast<char>(acc_);
        std::memcpy(buf_.data() + to, tmp, kCopyBytes);
        acc_ += static_cast<unsigned char>(tmp[7]);
        // Keys stay below 2^15, so the table's size is bounded.
        index_[(acc_ * 0x9e3779b97f4a7c15ULL) >> 49] += from;
        acc_ ^= index_.size();
    }
    return hostNs() - h0;
}

} // namespace perfbench
