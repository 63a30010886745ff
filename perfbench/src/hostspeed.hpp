#pragma once

// The host's momentary single-thread speed, read with a fixed reference
// kernel. On a shared host, a core's speed switches for seconds at a time
// (on the 4-vCPU KVM guest the bounds were set on, streaming
// floating-point code ran up to 1.5-1.8x slower while a neighbour was
// busy). Dividing a call's time by the kernel's time next to it removes
// most of that swing. The kernel is built apart from the library, with
// fixed flags and no library code, so no change to the program moves it.

namespace perfbench {

/// Seconds of one run of the reference kernel: a Lorenzo predict-and-
/// quantize sweep over a 192x384 float array, a 48x48 matrix product and
/// a chain of dependent table lookups. Under contention, the codecs' calls
/// slow by 1.1x (decoders) to 1.5x (ZFP); the mix is weighted to slow by
/// about 1.3x, near the middle.
double host_probe_s();

/// The kernel's seconds on an uncontended core of that guest. Normalized
/// times are call seconds × kHostNominalS / probe seconds, so on that
/// guest they read as uncontended seconds.
inline constexpr double kHostNominalS = 0.00047;

}  // namespace perfbench
