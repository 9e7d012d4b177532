#include "concurrency/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#if defined(__SANITIZE_ADDRESS__)
#define LEGO_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LEGO_FIBER_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define LEGO_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LEGO_FIBER_TSAN 1
#endif
#endif

#ifdef LEGO_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef LEGO_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace lego::concurrency {
namespace {

size_t PageBytes() {
  static const size_t kPage = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return kPage;
}

}  // namespace

FiberStacks::~FiberStacks() {
  for (char* map : maps_) munmap(map, PageBytes() + kStackBytes);
}

FiberStacks::Stack FiberStacks::Get(size_t i) {
  const size_t guard = PageBytes();
  while (maps_.size() <= i) {
    void* map = mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    if (map == MAP_FAILED || mprotect(map, guard, PROT_NONE) != 0) {
      std::perror("fiber stack mmap");
      std::abort();
    }
    maps_.push_back(static_cast<char*>(map));
  }
  return {maps_[i] + guard, kStackBytes};
}

Fiber::~Fiber() {
#ifdef LEGO_FIBER_TSAN
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::Start(FiberStacks::Stack stack, Entry entry, void* arg) {
  stack_ = stack;
  entry_ = entry;
  arg_ = arg;
  finished_ = false;
  getcontext(&self_);
  self_.uc_stack.ss_sp = stack.base;
  self_.uc_stack.ss_size = stack.size;
  self_.uc_link = nullptr;  // Trampoline never returns
  // makecontext passes int arguments: split the pointer in two halves.
  static_assert(sizeof(uintptr_t) == 8, "Trampoline expects 64-bit pointers");
  const auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&self_, reinterpret_cast<void (*)()>(&Fiber::Trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
#ifdef LEGO_FIBER_TSAN
  // A fresh TSan fiber per run: the last run's never-returning Trampoline
  // frame would otherwise stay on the reused fiber's shadow call stack.
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

void Fiber::Resume() {
#ifdef LEGO_FIBER_ASAN
  void* driver_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&driver_fake_stack, stack_.base,
                                 stack_.size);
#endif
#ifdef LEGO_FIBER_TSAN
  tsan_driver_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  swapcontext(&driver_, &self_);
#ifdef LEGO_FIBER_ASAN
  __sanitizer_finish_switch_fiber(driver_fake_stack, nullptr, nullptr);
#endif
}

void Fiber::Yield() {
#ifdef LEGO_FIBER_ASAN
  __sanitizer_start_switch_fiber(&fake_stack_, driver_bottom_, driver_size_);
#endif
#ifdef LEGO_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_driver_, 0);
#endif
  swapcontext(&self_, &driver_);
  Landed();
}

void Fiber::Landed() {
#ifdef LEGO_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_, &driver_bottom_,
                                  &driver_size_);
#endif
}

void Fiber::Trampoline(unsigned hi, unsigned lo) {
  auto* fiber = reinterpret_cast<Fiber*>((static_cast<uintptr_t>(hi) << 32) |
                                         static_cast<uintptr_t>(lo));
  fiber->fake_stack_ = nullptr;
  fiber->Landed();
  fiber->entry_(fiber->arg_);
  fiber->finished_ = true;
  // Leave for good: a null save slot lets ASan free this run's fake stack.
#ifdef LEGO_FIBER_ASAN
  __sanitizer_start_switch_fiber(nullptr, fiber->driver_bottom_,
                                 fiber->driver_size_);
#endif
#ifdef LEGO_FIBER_TSAN
  __tsan_switch_to_fiber(fiber->tsan_driver_, 0);
#endif
  setcontext(&fiber->driver_);
}

}  // namespace lego::concurrency
