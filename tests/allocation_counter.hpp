// Allocation counter for zero-allocation tests: replaces the global
// operator new/delete with forwarding versions that count every new and
// track the largest single request, so a steady-state path can assert it
// allocates nothing and a decoder that a forged count may not drive a
// large allocation. Allocation itself goes to malloc/free. The
// replacements are definitions, so include this from exactly one
// translation unit of a test binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > largest && !g_largest_allocation.compare_exchange_weak(
                               largest, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// GCC's -Wmismatched-new-delete sees through the forwarding operator new
// above once it inlines into a test body and flags the matching free() as
// a malloc/new mismatch — a false positive for a counting replacement pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
