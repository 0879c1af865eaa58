#pragma once

// The reference kernel: a fixed piece of work that belongs to the benchmark,
// not to the program, run while the program is idle. Its time says how fast
// the machine was at that moment, so the benchmark can report times and
// rates scaled to one machine speed. On a shared virtual machine that speed
// drifts by tens of percent over minutes, which would otherwise swamp the
// differences between two builds of the program.

#include <vector>

namespace perfbench {

/// Reported times and rates are scaled to a machine on which the reference
/// kernel takes this long: a round figure near its time on the 4-vCPU KVM
/// guest (Xeon Sapphire Rapids host) the benchmark was tuned on, where it
/// took 22-28 ms under varying load.
inline constexpr double kReferenceSeconds = 0.02;
/// The same for the kernel with thread handoffs (10-37 ms more there).
inline constexpr double kReferenceWithHandoffsSeconds = 0.04;

/// Runs the reference kernel once and returns its wall time in seconds. It
/// mixes integer hashing with filling and probing a 4 MiB open-addressing
/// hash table, so it slows down both when the cores run slower and when the
/// shared cache and memory are contended, as the workloads do. The table is
/// allocated once (it adds 4 MiB to peak_rss_mb), so the kernel does not
/// depend on the state of the program's heap. One caller at a time.
///
/// With `handoffs`, the kernel also passes a byte back and forth 1000 times
/// between two threads over a socket pair, like a request and its reply
/// over loopback; that part slows down, as a serving workload does, when
/// the host is slow to run a thread that was woken.
double ReferenceKernelSeconds(bool handoffs);

/// The kernel runs once per this much of the program's time (see
/// SampleReference), so it takes about the same share of any run.
inline constexpr double kReferenceEverySeconds = 0.5;

/// Runs the kernel once per kReferenceEverySeconds of `work_seconds`, and at
/// least once, appending each time to `reference_s`.
void SampleReference(double work_seconds, bool handoffs,
                     std::vector<double>* reference_s);

/// Median reference time over its time at the reference speed: how much
/// slower than that the machine ran. 1 when `reference_s` is empty.
double Slowdown(const std::vector<double>& reference_s, bool handoffs);

}  // namespace perfbench
