// Fiber drives session stacks for the concurrent backend; these tests pin
// its contract directly: switch order, exceptions inside a run, per-fiber
// FP control, the stack alignment and depth a run gets, and stack reuse.

#include "concurrency/fiber.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace lego::concurrency {
namespace {

struct Driven {
  Fiber* fiber = nullptr;
  int id = 0;
  int steps = 0;
  std::vector<int>* log = nullptr;
};

void LogAndYield(void* arg) {
  auto* d = static_cast<Driven*>(arg);
  for (int i = 0; i < d->steps; ++i) {
    d->log->push_back(d->id * 10 + i);
    d->fiber->Yield();
  }
  d->log->push_back(d->id * 10 + 9);
}

TEST(FiberTest, ResumeAndYieldAlternateAcrossThreeFibers) {
  FiberStacks stacks;
  Fiber fibers[3];
  for (int round = 0; round < 2; ++round) {  // the second round reuses stacks
    std::vector<int> log;
    Driven driven[3];
    for (int i = 0; i < 3; ++i) {
      driven[i] = {&fibers[i], i + 1, i + 1, &log};
      fibers[i].Start(stacks.Get(static_cast<size_t>(i)), &LogAndYield,
                      &driven[i]);
      EXPECT_FALSE(fibers[i].finished());
    }
    // Round-robin until all three finish: fiber k yields k times.
    for (bool live = true; live;) {
      live = false;
      for (Fiber& f : fibers) {
        if (f.finished()) continue;
        f.Resume();
        live = true;
      }
    }
    const std::vector<int> want = {10, 20, 30, 19, 21, 31, 29, 32, 39};
    EXPECT_EQ(log, want) << "round " << round;
  }
}

struct Thrower {
  Fiber* fiber = nullptr;
  std::string caught;
};

void ThrowAcrossYield(void* arg) {
  auto* t = static_cast<Thrower*>(arg);
  try {
    t->fiber->Yield();
    throw std::runtime_error("unwound on the fiber");
  } catch (const std::exception& e) {
    t->caught = e.what();
  }
}

TEST(FiberTest, ExceptionCaughtInsideEntryFinishesTheFiber) {
  FiberStacks stacks;
  Fiber fiber;
  Thrower t{&fiber, ""};
  fiber.Start(stacks.Get(0), &ThrowAcrossYield, &t);
  fiber.Resume();
  EXPECT_FALSE(fiber.finished());
  fiber.Resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(t.caught, "unwound on the fiber");
}

// fegetround reads the x87 control word; SSE arithmetic follows MXCSR. Under
// round-to-nearest 1/3 and -(-1/3) are equal, under FE_UPWARD they are not.
bool SseRoundsToNearest() {
  volatile double one = 1.0;
  volatile double minus_one = -1.0;
  volatile double three = 3.0;
  volatile double third = one / three;
  volatile double minus_third = minus_one / three;
  return third == -minus_third;
}

struct Rounding {
  Fiber* fiber = nullptr;
  int before_yield = -1;
  int after_yield = -1;
  bool sse_nearest_after_yield = true;
};

void RoundUpward(void* arg) {
  auto* r = static_cast<Rounding*>(arg);
  std::fesetround(FE_UPWARD);
  r->before_yield = std::fegetround();
  r->fiber->Yield();
  r->after_yield = std::fegetround();
  r->sse_nearest_after_yield = SseRoundsToNearest();
}

TEST(FiberTest, RoundingModeIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  FiberStacks stacks;
  Fiber fiber;
  Rounding r{&fiber};
  fiber.Start(stacks.Get(0), &RoundUpward, &r);
  fiber.Resume();
  EXPECT_EQ(r.before_yield, FE_UPWARD);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST) << "leaked to the driver";
  EXPECT_TRUE(SseRoundsToNearest()) << "MXCSR leaked to the driver";
  fiber.Resume();
  EXPECT_EQ(r.after_yield, FE_UPWARD) << "lost across a Yield";
  EXPECT_FALSE(r.sse_nearest_after_yield) << "MXCSR lost across a Yield";
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(std::fegetround(), FE_TONEAREST) << "leaked at the last switch";
  EXPECT_TRUE(SseRoundsToNearest()) << "MXCSR leaked at the last switch";
}

struct Alignment {
  uintptr_t local = 1;
  std::string formatted;
};

// Not inlined, so the local lives in a frame built on the fiber's stack.
__attribute__((noinline)) void CheckAlignment(void* arg) {
  auto* a = static_cast<Alignment*>(arg);
  alignas(16) char local[16] = {};
  // Read the address back through a volatile so the compiler cannot assume
  // the alignment it is asked to check.
  char* volatile address = local;
  a->local = reinterpret_cast<uintptr_t>(address);
  // glibc's printf family spills SSE registers with aligned stores.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%f", 2.5);
  a->formatted = buf;
}

TEST(FiberTest, EntryRunsOnA16ByteAlignedStack) {
  FiberStacks stacks;
  Fiber fiber;
  Alignment a;
  fiber.Start(stacks.Get(0), &CheckAlignment, &a);
  fiber.Resume();
  ASSERT_TRUE(fiber.finished());
  EXPECT_EQ(a.local % 16, 0u);
  EXPECT_EQ(a.formatted, "2.500000");
}

void Count(void* arg) { ++*static_cast<int*>(arg); }

TEST(FiberTest, ManyRunsReuseOneStackSlot) {
  FiberStacks stacks;
  Fiber fiber;
  int runs = 0;
  for (int i = 0; i < 10000; ++i) {
    fiber.Start(stacks.Get(0), &Count, &runs);
    fiber.Resume();
    ASSERT_TRUE(fiber.finished());
  }
  EXPECT_EQ(runs, 10000);
}

// Each level keeps a 1 KiB frame live across the recursive call and
// reports the lowest frame it reached. Frame addresses, unlike addresses of
// locals, stay on the fiber's stack under ASan's fake stacks.
__attribute__((noinline)) uintptr_t Recurse(int depth) {
  char pad[1024];
  std::memset(pad, depth & 0x7f, sizeof(pad));
  asm volatile("" : : "r"(pad) : "memory");
  const uintptr_t deepest =
      depth == 0 ? reinterpret_cast<uintptr_t>(__builtin_frame_address(0))
                 : Recurse(depth - 1);
  asm volatile("" : : "r"(pad) : "memory");
  return deepest;
}

struct Deep {
  uintptr_t top = 0;
  uintptr_t deepest = 0;
};

void RecurseOnFiber(void* arg) {
  auto* d = static_cast<Deep*>(arg);
  d->top = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  d->deepest = Recurse(1024);
}

TEST(FiberTest, RecursionAboutOneMiBDeep) {
  FiberStacks stacks;
  Fiber fiber;
  Deep d;
  fiber.Start(stacks.Get(0), &RecurseOnFiber, &d);
  fiber.Resume();
  ASSERT_TRUE(fiber.finished());
  EXPECT_GE(d.top - d.deepest, uintptr_t{1} << 20);
  EXPECT_LT(d.top - d.deepest, FiberStacks::kStackBytes);
}

}  // namespace
}  // namespace lego::concurrency
