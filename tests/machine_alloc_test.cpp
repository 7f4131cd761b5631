//===- tests/machine_alloc_test.cpp - Fixed cost of building a machine ------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// A machine's fixed cost is paid once per run, and once per attempt in
// every fork()ed lbp_fleet worker. This binary replaces the global
// operator new with a counting one, so it is its own executable, and
// bounds the heap allocations of constructing and destroying a Machine
// at every width: per-core state costs a few vectors, and nothing may
// allocate per delivery-wheel slot (docs/PERFORMANCE.md, "Delivery
// wheel").
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <type_traits>

using namespace lbp;

namespace {

std::atomic<uint64_t> Allocs{0};

void *countedAlloc(std::size_t Size, std::size_t Align) {
  Allocs.fetch_add(1, std::memory_order_relaxed);
  if (Size == 0)
    Size = 1;
  void *P = Align <= alignof(std::max_align_t)
                ? std::malloc(Size)
                : std::aligned_alloc(Align, (Size + Align - 1) / Align * Align);
  if (!P)
    throw std::bad_alloc();
  return P;
}

} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size, 1); }
void *operator new[](std::size_t Size) { return countedAlloc(Size, 1); }
void *operator new(std::size_t Size, std::align_val_t Align) {
  return countedAlloc(Size, static_cast<std::size_t>(Align));
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return countedAlloc(Size, static_cast<std::size_t>(Align));
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

namespace {

static_assert(std::is_move_constructible_v<sim::Machine>,
              "fleet workers and tests move machines");

TEST(MachineAllocations, ConstructionIsBoundedAtEveryWidth) {
  // 64 leaves room for a new per-core vector or two, and none for any
  // storage allocated per wheel slot (16,384 of them).
  constexpr uint64_t Bound = 64;
  for (unsigned Cores : {4u, 16u, 64u}) {
    sim::SimConfig Cfg = sim::SimConfig::lbp(Cores);
    uint64_t Before = Allocs.load(std::memory_order_relaxed);
    { sim::Machine M(Cfg); }
    uint64_t Made = Allocs.load(std::memory_order_relaxed) - Before;
    EXPECT_LE(Made, Bound) << Cores << "-core machine";
    EXPECT_GT(Made, 0u) << "the counting operator new is not in use";
  }
}

} // namespace
