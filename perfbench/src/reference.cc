#include "reference.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

/// Slots of the kernel's hash table (4 MiB): larger than a core's L2
/// cache, so its probes go to the shared L3 cache as the workloads' label
/// caches and populations do.
constexpr size_t kTableSlots = size_t{1} << 19;
constexpr uint32_t kInserts = 150000;
constexpr uint32_t kLookups = 300000;

constexpr int kHandoffRoundTrips = 1000;

uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Passes one byte back and forth between this thread and a peer thread.
void HandOff() {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return;
  // Each side closes its end when it stops, which ends the other's loop.
  std::thread peer([fd = fds[1]] {
    char byte;
    for (int i = 0; i < kHandoffRoundTrips; ++i) {
      if (read(fd, &byte, 1) != 1 || write(fd, &byte, 1) != 1) break;
    }
    close(fd);
  });
  char byte = 0;
  for (int i = 0; i < kHandoffRoundTrips; ++i) {
    if (write(fds[0], &byte, 1) != 1 || read(fds[0], &byte, 1) != 1) break;
  }
  close(fds[0]);
  peer.join();
}

}  // namespace

double ReferenceKernelSeconds(bool handoffs) {
  // Allocated once and reused, so the kernel's speed does not depend on the
  // state of the heap the program under test shares with it.
  static std::vector<uint64_t> table(kTableSlots);
  using Clock = std::chrono::steady_clock;
  const Clock::time_point begin = Clock::now();
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 4000000; ++i) x = XorShift(x) * 0x9E3779B97F4A7C15ULL;
  // Open addressing with linear probing; 0 marks an empty slot.
  std::memset(table.data(), 0, table.size() * sizeof(uint64_t));
  const size_t mask = kTableSlots - 1;
  uint64_t key = x | 1;
  for (uint32_t i = 0; i < kInserts; ++i) {
    key = XorShift(key);
    size_t slot = (key * 0x9E3779B97F4A7C15ULL) >> 45 & mask;
    while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) & mask;
    table[slot] = key;
  }
  uint64_t hits = 0;
  key = x | 1;
  for (uint32_t i = 0; i < kLookups; ++i) {
    key = XorShift(key);
    const uint64_t probe = i % 2 == 0 ? key : key + 1;
    size_t slot = (probe * 0x9E3779B97F4A7C15ULL) >> 45 & mask;
    while (table[slot] != 0 && table[slot] != probe) slot = (slot + 1) & mask;
    hits += table[slot] == probe;
  }
  // Keeps the work observable so the compiler cannot drop it.
  volatile uint64_t sink = hits + x;
  (void)sink;
  if (handoffs) HandOff();
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

void SampleReference(double work_seconds, bool handoffs,
                     std::vector<double>* reference_s) {
  const int runs =
      std::max(1, static_cast<int>(work_seconds / kReferenceEverySeconds));
  for (int i = 0; i < runs; ++i) {
    reference_s->push_back(ReferenceKernelSeconds(handoffs));
  }
}

double Slowdown(const std::vector<double>& reference_s, bool handoffs) {
  const double reference =
      handoffs ? kReferenceWithHandoffsSeconds : kReferenceSeconds;
  return reference_s.empty() ? 1.0 : Median(reference_s) / reference;
}

}  // namespace perfbench
