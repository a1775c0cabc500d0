// The /proc-backed memory probes behind the out-of-core budget
// accounting (common/memprobe.h). The contract is deliberately loose —
// the probes may be unavailable (non-Linux, locked-down /proc) and then
// report 0 — so every test first checks availability and only then
// asserts the Linux behavior.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstring>
#include <memory>

#include "common/memprobe.h"

namespace kf {
namespace {

/// `bytes` of fresh anonymous pages, touched so they are actually
/// resident (RSS counts touched pages, not reservations) and unmapped on
/// destruction. Mapped directly rather than taken from the heap: an
/// allocator, or a sanitizer's quarantine, may keep freed heap resident,
/// and ResetPeakRebasesTheHighWater needs the pages gone once the buffer
/// is.
class TouchedPages {
 public:
  explicit TouchedPages(size_t bytes)
      : bytes_(bytes),
        data_(mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
    if (data_ == MAP_FAILED) {
      ADD_FAILURE() << "mmap of " << bytes << " bytes failed";
      return;
    }
    std::memset(data_, 0x5a, bytes);
  }
  ~TouchedPages() {
    if (data_ != MAP_FAILED) munmap(data_, bytes_);
  }
  TouchedPages(const TouchedPages&) = delete;
  TouchedPages& operator=(const TouchedPages&) = delete;

 private:
  size_t bytes_;
  void* data_;
};

std::unique_ptr<TouchedPages> TouchBytes(size_t bytes) {
  return std::make_unique<TouchedPages>(bytes);
}

TEST(MemprobeTest, CurrentRssIsPositiveWhenAvailable) {
  const size_t rss = CurrentRssBytes();
  if (rss == 0) GTEST_SKIP() << "/proc RSS probe unavailable";
  // A running test binary holds at least a megabyte.
  EXPECT_GT(rss, 1u << 20);
}

TEST(MemprobeTest, PeakIsAtLeastCurrent) {
  const size_t current = CurrentRssBytes();
  const size_t peak = PeakRssBytes();
  if (current == 0 || peak == 0) GTEST_SKIP() << "probe unavailable";
  EXPECT_GE(peak, current);
}

TEST(MemprobeTest, PeakGrowsAcrossALargeAllocation) {
  if (PeakRssBytes() == 0) GTEST_SKIP() << "probe unavailable";
  const size_t before = PeakRssBytes();
  auto buf = TouchBytes(64u << 20);
  const size_t after = PeakRssBytes();
  // The high-water mark must have moved by a substantial part of the
  // 64 MiB (not all: pages already free in the heap may be reused).
  EXPECT_GE(after, before + (32u << 20));
}

TEST(MemprobeTest, TrackerReportsAPhasePeak) {
  PeakRssTracker tracker;
  auto buf = TouchBytes(48u << 20);
  tracker.Sample();
  const size_t peak = tracker.PeakBytes();
  if (peak == 0) GTEST_SKIP() << "no RSS probe works here";
  // Whichever probe backs the tracker, the phase peak must cover the
  // resident allocation made inside the phase.
  EXPECT_GE(peak, 48u << 20);
}

TEST(MemprobeTest, TrackerSampleIsMonotone) {
  PeakRssTracker tracker;
  tracker.Sample();
  const size_t first = tracker.PeakBytes();
  auto buf = TouchBytes(32u << 20);
  tracker.Sample();
  EXPECT_GE(tracker.PeakBytes(), first);
}

TEST(MemprobeTest, ResetPeakRebasesTheHighWater) {
  // After a large allocation is freed, a successful reset must bring
  // the reported peak down below the old high-water.
  const size_t inflated = [] {
    auto buf = TouchBytes(96u << 20);
    return PeakRssBytes();
  }();
  if (inflated == 0) GTEST_SKIP() << "probe unavailable";
  if (!ResetPeakRss()) GTEST_SKIP() << "clear_refs unsupported";
  const size_t rebased = PeakRssBytes();
  ASSERT_NE(rebased, 0u);
  EXPECT_LT(rebased, inflated);
}

}  // namespace
}  // namespace kf
