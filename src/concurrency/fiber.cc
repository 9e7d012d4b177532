#include "concurrency/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
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

#if defined(__x86_64__)
// lego_fiber_switch(save_sp, load_sp) pushes rbp, rbx, r12-r15 and then
// MXCSR (low 4 bytes) and the x87 control word (next 2) in one 8-byte slot,
// stores rsp in *save_sp, loads rsp from load_sp and pops the same layout,
// returning on the other stack. Fiber::Start writes that layout, returning
// into lego_fiber_entry, as a fresh fiber's first frame.
//
// lego_fiber_entry calls r13(r12), that is Fiber::Trampoline(fiber), with
// rsp 16-byte aligned at the call. Its return address is undefined in the
// unwind table, so unwinders (and an escaping exception) stop there.
asm(R"(
  .pushsection .text
  .p2align 4
  .globl lego_fiber_switch
  .hidden lego_fiber_switch
  .type lego_fiber_switch, @function
lego_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size lego_fiber_switch, .-lego_fiber_switch

  .p2align 4
  .globl lego_fiber_entry
  .hidden lego_fiber_entry
  .type lego_fiber_entry, @function
lego_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size lego_fiber_entry, .-lego_fiber_entry
  .popsection
)");

extern "C" {
__attribute__((visibility("hidden"))) void lego_fiber_switch(
    void** save_sp, void* load_sp) noexcept;
__attribute__((visibility("hidden"))) void lego_fiber_entry() noexcept;
}
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
  assert(finished_);
  stack_ = stack;
  entry_ = entry;
  arg_ = arg;
  finished_ = false;
#if defined(__x86_64__)
  // The frame lego_fiber_switch pops, at the 16-byte aligned top of the
  // stack: FP control words, r15, r14, r13, r12, rbx, rbp, return address.
  // The fiber starts with the driver's current FP control words.
  uint32_t mxcsr = 0;
  uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  const uintptr_t top =
      reinterpret_cast<uintptr_t>(stack.base + stack.size) & ~uintptr_t{15};
  uint64_t* frame = reinterpret_cast<uint64_t*>(top) - 8;
  frame[0] = mxcsr | (uint64_t{fpu_cw} << 32);
  frame[1] = 0;                                                // r15
  frame[2] = 0;                                                // r14
  frame[3] = reinterpret_cast<uintptr_t>(&Fiber::Trampoline);  // r13
  frame[4] = reinterpret_cast<uintptr_t>(this);                // r12
  frame[5] = 0;                                                // rbx
  frame[6] = 0;  // rbp: ends frame-pointer walks
  frame[7] = reinterpret_cast<uintptr_t>(&lego_fiber_entry);
  self_ = frame;
#else
  getcontext(&self_);
  self_.uc_stack.ss_sp = stack.base;
  self_.uc_stack.ss_size = stack.size;
  self_.uc_link = nullptr;  // Trampoline never returns
  static_assert(sizeof(uintptr_t) == 8, "Trampoline expects 64-bit pointers");
  const auto self = reinterpret_cast<uintptr_t>(this);
  makecontext(&self_, reinterpret_cast<void (*)()>(&Fiber::TrampolineHalves),
              2, static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
#endif
#ifdef LEGO_FIBER_TSAN
  // A fresh TSan fiber per run: the last run's never-returning Trampoline
  // frame would otherwise stay on the reused fiber's shadow call stack.
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

void Fiber::Switch(Context* save, Context* load) {
#if defined(__x86_64__)
  lego_fiber_switch(save, *load);
#else
  swapcontext(save, load);
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
  Switch(&driver_, &self_);
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
  Switch(&self_, &driver_);
  Landed();
}

void Fiber::Landed() {
#ifdef LEGO_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_, &driver_bottom_,
                                  &driver_size_);
#endif
}

void Fiber::Trampoline(Fiber* fiber) {
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
  Switch(&fiber->self_, &fiber->driver_);
  std::abort();  // the driver never switches back into a finished run
}

#if !defined(__x86_64__)
void Fiber::TrampolineHalves(unsigned hi, unsigned lo) {
  Trampoline(reinterpret_cast<Fiber*>((static_cast<uintptr_t>(hi) << 32) |
                                      static_cast<uintptr_t>(lo)));
}
#endif

}  // namespace lego::concurrency
