// Passing checks must be free: util::require with a literal message builds
// no std::string unless it throws, so JsonWriter (two checks per value)
// and the literal checks in the parsers cost no heap allocation.  This
// binary replaces the global operator new with a counting one, which is
// why it stands alone.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <streambuf>
#include <string>

#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace obs = cts::obs;
namespace cu = cts::util;

long allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// An output buffer that never grows, so every allocation the writer
/// makes shows in the count.
class FixedBuffer : public std::streambuf {
 public:
  FixedBuffer() { setp(data_, data_ + sizeof(data_)); }
  std::string text() const { return std::string(pbase(), pptr()); }

 private:
  char data_[1 << 16];
};

// Opaque to the optimiser, so the checks below are really evaluated.
volatile bool g_true = true;

TEST(RequireAlloc, PassingLiteralCheckAllocatesNothing) {
  const long before = allocations();
  for (int i = 0; i < 1000; ++i) {
    cu::require(g_true, "a literal message well past the small-string buffer");
  }
  EXPECT_EQ(allocations() - before, 0);
}

TEST(RequireAlloc, FailingChecksThrowTheirMessageVerbatim) {
  try {
    cu::require(!g_true, "stats request: format must be a string");
    FAIL() << "no throw";
  } catch (const cu::InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "stats request: format must be a string");
  }
  const std::string composed = std::string("got '") + "x" + "'";
  try {
    cu::require(!g_true, composed);
    FAIL() << "no throw";
  } catch (const cu::InvalidArgument& e) {
    EXPECT_EQ(e.what(), composed);
  }
}

TEST(RequireAlloc, JsonWriterAllocatesNothingPerValue) {
  FixedBuffer buffer;
  std::ostream os(&buffer);
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("v").begin_array();
  // One nested object first: the writer's frame stack reaches its depth.
  w.begin_object().key("n").value(std::int64_t{0}).end_object();
  const long before = allocations();
  for (int i = 1; i <= 1000; ++i) {
    w.value(std::int64_t{i});
    w.value(std::uint64_t{2} * static_cast<std::uint64_t>(i));
    w.value(0.25 * i);
    w.value(i % 2 == 0);
    w.null();
    w.begin_object().key("n").value(std::int64_t{i}).end_object();
  }
  EXPECT_EQ(allocations() - before, 0);
  w.end_array();
  w.end_object();
  ASSERT_TRUE(w.complete());
  std::string error;
  EXPECT_TRUE(obs::json_parse_check(buffer.text(), &error)) << error;
}

}  // namespace
