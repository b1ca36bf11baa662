#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

/**
 * @file
 * A fixed host workload that uses none of the library. The benchmark
 * times short slices of it between its own timed requests, so run.py
 * can tell how fast the machine was while the library ran and scale the
 * timed phase's host times to one reference speed.
 */

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Calibrator
{
  public:
    Calibrator();

    /**
     * Run one slice of the kernel and return its host wall ns. Every
     * slice does the same work: 128 random 128-byte copies inside an
     * 8 MiB buffer, each followed by a hash-table update, the kind of
     * load the library's simulated NVM and cache index put on the host.
     * A slice takes about 30 us on a quiet 2 GHz Xeon.
     */
    int64_t slice();

  private:
    std::vector<char> buf_;
    std::unordered_map<uint64_t, uint64_t> index_;
    uint64_t x_ = 0x2545f4914f6cdd1dULL;
    uint64_t acc_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H_
